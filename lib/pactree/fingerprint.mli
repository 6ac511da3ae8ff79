(** One-byte key fingerprints (paper §4.2, after FP-Tree).

    A lookup first scans the 64-byte fingerprint array of a data node
    (one cache line) and only runs full key comparisons on slots whose
    fingerprint matches, cutting NVM reads per lookup. *)

(** [of_key k] is in [\[1, 255\]]; 0 is reserved for empty slots so a
    fingerprint array of zeroes can never match. *)
val of_key : Key.t -> int

(** [of_bytes b pos len] is [of_key] of the [len] bytes of [b] at
    [pos]. *)
val of_bytes : Bytes.t -> int -> int -> int
