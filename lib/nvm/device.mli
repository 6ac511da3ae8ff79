(** One NVM media device (one NUMA domain's DIMMs behind its iMC).

    Models the parts of Optane DCPMM the paper's findings depend on:

    - finite bandwidth via a fixed set of parallel channels; a request
      occupies the earliest-free channel for [latency + bytes * cost];
    - 256-byte XPLine access granularity with read-modify-write
      amplification for partial writes (FH1/FH2);
    - an XPLine read buffer plus sequential prefetcher, which makes
      sequential reads much cheaper than random ones (FH3);
    - directory coherence state stored on the media: a media access
      from a different NUMA domain than the current owner generates a
      directory {e write} under the [Directory] protocol (FH5).

    The device is a pure cost model: it computes completion times from
    request times and never touches the scheduler, so callers decide
    whether to block. *)

type t

(** [create ~channels ~protocol ~numa]: [channels] parallel media channels. *)
val create : channels:int -> protocol:Config.protocol -> numa:int -> t

val numa : t -> int

val stats : t -> Stats.t

(** A time register.  It is a float-only record, which OCaml stores
    unboxed, so the times passing through it are never boxed: the
    caller writes the request time into [at] and the model overwrites
    it with the completion time.  A model call does not yield, so one
    cursor can serve every access of its owner. *)
type cursor = { mutable at : float }

(** [read t c ~xpline ~from_numa] models fetching XPLine [xpline],
    requested at [c.at], and sets [c.at] to the completion time.  A
    buffer hit bypasses the channels.  Directory maintenance traffic is
    added when [from_numa] differs from the line's current owner. *)
val read : t -> cursor -> xpline:int -> from_numa:int -> unit

(** [write t c ~xpline ~bytes ~from_numa] models persisting [bytes]
    (<= 256) of XPLine [xpline], requested at [c.at].  Partial writes
    charge an extra 256B RMW read.  Sets [c.at] to when the write
    enters the WPQ (ADR persistent domain — what a fence waits for);
    the media transfer books the channels (channel occupancy /
    bandwidth). *)
val write : t -> cursor -> xpline:int -> bytes:int -> from_numa:int -> unit

(** Drop buffered XPLines and coherence state (used on crash). *)
val reset_buffers : t -> unit
