type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  "\"" ^ Buffer.contents buf ^ "\""

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if not (Float.is_finite f) then "null"
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits >= 17 || float_of_string s = f then s else shortest (digits + 1)
    in
    shortest 15

let is_scalar = function List _ | Obj _ -> false | _ -> true

let to_string t =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let rec value indent = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Int i -> add (string_of_int i)
    | Float f -> add (float_repr f)
    | String s -> add (escape s)
    | List items -> members indent "[" "]" (List.map (fun v -> (None, v)) items)
    | Obj fields -> members indent "{" "}" (List.map (fun (k, v) -> (Some k, v)) fields)
  and members indent opening closing items =
    add opening;
    let flat = List.for_all (fun (_, v) -> is_scalar v) items in
    let inner = indent ^ "  " in
    List.iteri
      (fun i (key, v) ->
        if i > 0 then add (if flat then ", " else ",");
        if not flat then add ("\n" ^ inner);
        Option.iter (fun k -> add (escape k ^ ": ")) key;
        value inner v)
      items;
    if not flat then add ("\n" ^ indent);
    add closing
  in
  value "" t;
  Buffer.contents buf

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string json);
      output_char oc '\n')
