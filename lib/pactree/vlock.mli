(** Optimistic persistent version lock (paper §5.7).

    An 8-byte word on NVM: a generation id in the high 32 bits and a
    version number in the low 32.  An odd version means write-locked.
    Readers never modify the word (GA2), writers bump it on acquire
    and release.

    The generation id makes recovery O(1): the index's global
    generation is incremented on every restart, so every lock written
    before the crash carries a stale generation and is treated as free
    (and lazily re-initialised) without visiting any node (§5.1).

    Every function takes the word's pool and offset: a node visit or a
    writer locking a node builds no record. *)

(** [init pool off ~gen] initialises an unlocked word for generation
    [gen]. *)
val init : Nvm.Pool.t -> int -> gen:int -> unit

(** The word [init] stores: free, version 0, generation [gen]; for a
    writer that builds a fresh node's header line in a buffer. *)
val fresh : gen:int -> int

(** [is_current w ~gen]: the word [w] was stored in generation [gen],
    that is since the last restart. *)
val is_current : int -> gen:int -> bool

(** Current version; a stale-generation word reads as version 0
    (free).  Pure — readers never write (GA2); the word is only
    re-initialised when a writer acquires it.  May return an odd
    (locked) version. *)
val read_version : Nvm.Pool.t -> int -> gen:int -> int

val is_locked : int -> bool

(** True once the node was retired by a CoW replacement; readers must
    restart, writers can never lock it again (§ART-OLC "obsolete"). *)
val is_obsolete : int -> bool

(** Spin (with simulated backoff) until unlocked, returning an even
    version snapshot for optimistic validation. *)
val begin_read : Nvm.Pool.t -> int -> gen:int -> int

(** [begin_read_snapshot pool off ~gen buf pos len] copies the [len]
    bytes from the lock word at [off] in [pool] on into [buf] at [pos]
    with one read and returns
    the version in the copy, like {!begin_read}: while the copied word
    is locked it backs off and copies again, and a stale generation
    reads as version 0.  An unlocked copy is a consistent image of the
    fields it covers; {!validate} still commits whatever is read from
    the object afterwards. *)
val begin_read_snapshot : Nvm.Pool.t -> int -> gen:int -> bytes -> int -> int -> int

(** [validate pool off ~gen ~version] is [true] iff the word at [off]
    in [pool] still holds exactly [version] — no writer intervened. *)
val validate : Nvm.Pool.t -> int -> gen:int -> version:int -> bool

(** Acquire the write lock (spin with backoff).  Returns the odd
    version now held. *)
val acquire : Nvm.Pool.t -> int -> gen:int -> int

(** [lock_from pool off ~gen w] takes the write lock with one CAS from
    [w], a copy of the word read earlier (with the fields after it):
    the odd version now held, or [-1] when [w] is locked or obsolete,
    or the word is no longer [w].  Holding the lock then proves that
    nothing changed the object under its lock since [w] was read. *)
val lock_from : Nvm.Pool.t -> int -> gen:int -> int -> int

(** [try_upgrade pool off ~gen ~version] atomically upgrades a reader that
    validated [version] into the writer; [false] means a concurrent
    writer won and the caller must restart. *)
val try_upgrade : Nvm.Pool.t -> int -> gen:int -> version:int -> bool

(** Release the write lock taken at odd [version]. *)
val release : Nvm.Pool.t -> int -> gen:int -> version:int -> unit

(** Release and mark the node obsolete (retired by CoW). *)
val release_obsolete : Nvm.Pool.t -> int -> gen:int -> version:int -> unit

(** An optimistic conflict: the operation must start over. *)
exception Restart

(** [retrying on_restart f a b] is [f a b], run again after every
    {!Restart} with [on_restart a] and a {!Des.Sched.wait} between;
    any other exception propagates.  With a top-level [f] it builds no closure. *)
val retrying : ('a -> unit) -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c

(** [retry f] is [retrying ignore] over the thunk [f]. *)
val retry : (unit -> 'a) -> 'a
