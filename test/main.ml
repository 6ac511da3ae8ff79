let () = Hang_alarm.arm ()

let () =
  Alcotest.run "pactree"
    [
      ("des", Test_des.suite);
      ("nvm", Test_nvm.suite);
      ("pmalloc", Test_pmalloc.suite);
      ("pobj", Test_pobj.suite);
      ("art", Test_art.suite);
      ("pdlart_props", Test_pdlart_props.suite);
      ("data_node", Test_data_node.suite);
      ("crash_torture", Test_crash_torture.suite);
      ("crashmc", Test_crashmc.suite);
      ("eadr", Test_eadr.suite);
      ("tree", Test_tree.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("svc", Test_svc.suite);
      ("obs", Test_obs.suite);
      ("registry", Test_registry.suite);
      ("smo_readers", Test_smo_readers.suite);
      ("stale_hits", Test_stale_hits.suite);
    ]
