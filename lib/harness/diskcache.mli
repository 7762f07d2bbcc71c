(** Persistent on-disk cache for run results.

    One marshaled file per key under {!dir} (default ["_runs_cache"],
    overridable with the [REPRO_CACHE_DIR] environment variable; disable
    entirely with [REPRO_DISK_CACHE=0]).  Keys come from {!key}, which
    digests its parts together with an internal cache-format version:
    include everything the value depends on (benchmark source, target
    description, compiler knobs) and staleness becomes impossible — a
    changed input is a different key, and orphaned entries are just never
    read again.  Writes are atomic (temp file + rename), so concurrent
    domains and processes are safe.  Each entry carries a CRC-32C of its
    marshaled payload (["RRC2"] envelope), so truncated or bit-corrupted
    files — which [Marshal] alone can silently decode into garbage — and
    entries in any other envelope read as misses and are regenerated,
    while warm hits pay only a cheap checksum pass.

    Values are stored with [Marshal]; each key namespace must map to a
    single result type (callers prefix keys with a kind tag). *)

val key : string list -> string
(** Hex digest of the parts plus the cache-format version. *)

val find : string -> 'a option
val store : string -> 'a -> unit

val memo : string -> (unit -> 'a) -> 'a
(** [memo k f] returns the cached value for [k], or computes, stores and
    returns it. *)

val dir : unit -> string
val set_dir : string -> unit

val subdir : string -> string
(** [subdir name] is [Filename.concat (dir ()) name], created (with
    {!dir} itself) if missing — the trace store lives in
    [subdir "traces"]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val clear : unit -> unit
(** Remove every entry in {!dir}, including stored traces. *)

val hit_count : unit -> int
(** Disk hits since program start (for tests and diagnostics). *)

val miss_count : unit -> int
