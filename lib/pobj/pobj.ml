module Layout = Layout
module Sanitizer = Sanitizer
module Pool = Nvm.Pool

type obj = { pool : Nvm.Pool.t; off : int }

let make pool off = { pool; off }

let pool o = o.pool

let base o = o.off

let shift o delta = { o with off = o.off + delta }

let equal a b = a.pool == b.pool && a.off = b.off

let pp ppf o = Format.fprintf ppf "%s+%d" (Pool.name o.pool) o.off

(* {2 Raw accessors} — offsets relative to the object base.  These are
   the escape hatch for variable-length regions (keys, values, anchor
   bytes) that a static layout can't name per element. *)

let read_int o rel = Pool.read_int o.pool (o.off + rel)

let write_int o rel v = Pool.write_int o.pool (o.off + rel) v

let read_i64 o rel = Pool.read_int64 o.pool (o.off + rel)

let write_i64 o rel v = Pool.write_int64 o.pool (o.off + rel) v

let read_u8 o rel = Pool.read_u8 o.pool (o.off + rel)

let write_u8 o rel v = Pool.write_u8 o.pool (o.off + rel) v

let read_u16 o rel = Pool.read_u16 o.pool (o.off + rel)

let write_u16 o rel v = Pool.write_u16 o.pool (o.off + rel) v

let read_u32 o rel = Pool.read_u32 o.pool (o.off + rel)

let write_u32 o rel v = Pool.write_u32 o.pool (o.off + rel) v

let read_string o rel len = Pool.read_string o.pool (o.off + rel) len

let write_string o rel s = Pool.write_string o.pool (o.off + rel) s

let blit_to_bytes o rel buf pos len = Pool.blit_to_bytes o.pool (o.off + rel) buf pos len

let blit_from_bytes o rel buf pos len = Pool.blit_from_bytes o.pool (o.off + rel) buf pos len

let compare_string o rel len s = Pool.compare_string o.pool (o.off + rel) len s

let fill_zero o rel len = Pool.fill_zero o.pool (o.off + rel) len

let cas o rel ~expected v = Pool.cas_int o.pool (o.off + rel) ~expected v

(* {2 Typed field accessors} *)

(* A store to a transient field is exempt from the sanitizer.  The
   closure for [Sanitizer.with_suppressed] is only built while a
   sanitizer runs: field stores are on every operation's path. *)
let suppressed f = Layout.is_transient f && Sanitizer.active ()

let store f write o v =
  if suppressed f then Sanitizer.with_suppressed (fun () -> write o (Layout.off f) v)
  else write o (Layout.off f) v

let get_int o f = read_int o (Layout.off f)

(* A transient word (a lock word, a stamp) is a transient store: no
   persist checker sees it. *)
let set_int o f v =
  if Layout.is_transient f then Pool.write_int_transient o.pool (o.off + Layout.off f) v
  else write_int o (Layout.off f) v

let get_i64 o f = read_i64 o (Layout.off f)

let set_i64 o f v = store f write_i64 o v

let get_u8 o f = read_u8 o (Layout.off f)

let set_u8 o f v = store f write_u8 o v

let get_u16 o f = read_u16 o (Layout.off f)

let set_u16 o f v = store f write_u16 o v

let get_u32 o f = read_u32 o (Layout.off f)

let set_u32 o f v = store f write_u32 o v

let cas_field o f ~expected v =
  if Layout.is_transient f then
    Pool.cas_int_transient o.pool (o.off + Layout.off f) ~expected v
  else cas o (Layout.off f) ~expected v

(* {2 Persistence} *)

let clwb o rel = Pool.clwb o.pool (o.off + rel)

let flush o rel len = Pool.flush_range o.pool (o.off + rel) len

let ntstore o rel buf pos len = Pool.ntstore o.pool (o.off + rel) buf pos len

let fence o = Pool.fence o.pool

let persist o rel len = Pool.persist o.pool (o.off + rel) len

let flush_field o f = flush o (Layout.off f) (Layout.field_size f)

let persist_field o f =
  flush_field o f;
  fence o

let persist_obj o layout =
  flush o 0 (Layout.size layout);
  fence o

(* {2 Transient stores} — deliberately never flushed (selectively
   persisted regions); exempt from the sanitizer. *)

let transient_cas o rel ~expected v = Pool.cas_int_transient o.pool (o.off + rel) ~expected v
