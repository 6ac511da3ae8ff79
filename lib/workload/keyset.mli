(** Key spaces for the YCSB workloads (paper §6: 8-byte integer keys
    and 23-byte string keys). *)

type kind = Int_keys | String_keys

(** [key kind i] maps the dense index [i] (0..) to a unique key; the
    mapping scatters consecutive indices across the key space like the
    index-microbench's hashed keys. *)
val key : kind -> int -> Pactree.Key.t

(** [key_inline kind] is the data-node inline size to configure. *)
val key_inline : kind -> int
