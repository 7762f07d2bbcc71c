(** The one memo policy behind every measurement: look in process, then
    on disk, then compute once, then store.

    Each kind of measurement is declared once as a family ({!in_process}
    or {!on_disk}); the family owns its in-process table and, on disk,
    its {!Diskcache} namespace, so one namespace holds one value type.
    A {!key} names one entry of a family by a cheap in-process identity,
    in practice (benchmark, target name).  The identity is also the key's
    flight: computes for equal identities, in any family, run one at a
    time, so a request that arrives while another family's compute holds
    the flight waits for it and then reads what it {!put}.  A flight is
    re-entrant within one domain: a compute may {!get} another family's
    value under its own flight.  (Measurements run on {!Pool} domains,
    one thread each.)

    Tables are mutex-guarded and safe to share across domains. *)

type 'a t
(** A family of entries of type ['a]. *)

val in_process : unit -> 'a t
(** A family kept in process only (compiled images, trace readers). *)

val on_disk : string -> 'a t
(** [on_disk tag]: entries also persist in {!Diskcache}, under keys
    digested from [tag] and the key's disk parts.

    @raise Invalid_argument if another family already owns [tag]. *)

type 'a key

val key : ?disk:(unit -> string list) -> 'a t -> string * string -> 'a key
(** [key ~disk family id].  [disk] yields the disk key's parts after the
    family's tag: everything the value depends on.  It runs, and is
    digested, only on an in-process miss.

    @raise Invalid_argument if [disk] is missing for an {!on_disk}
      family. *)

val get : 'a key -> (unit -> 'a) -> 'a
(** The in-process entry; else, under the key's flight, the in-process
    entry another domain installed meanwhile, or the disk entry
    (installed); else [compute ()], stored on disk and installed.  A
    compute that raises stores nothing and releases the flight. *)

val fill : 'a key -> (unit -> unit) -> 'a
(** Like {!get}, but a cold entry comes from [run ()], which {!put}s it
    and whatever else of the identity it measured.
    @raise Invalid_argument if [run ()] put no entry for the key. *)

val resident : 'a t -> string -> string -> 'a
(** [resident family a b]: the in-process entry for identity [(a, b)],
    with no disk read, no flight and no allocation.
    @raise Not_found if there is none. *)

val find : 'a key -> 'a option
(** The in-process entry, else the disk entry (installed).  Never
    computes and takes no flight. *)

val put : 'a key -> 'a -> unit
(** Store and install a value: a by-product of another family's compute. *)

val disk_key : 'a key -> string
(** The {!Diskcache} key of an {!on_disk} family's entry. *)

val clear : unit -> unit
(** Empty every family's in-process table; the disk cache persists. *)
