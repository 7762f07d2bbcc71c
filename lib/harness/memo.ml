type id = string * string

type 'a t = {
  tag : string option;  (* the Diskcache namespace, if persisted *)
  lock : Mutex.t;
  tbl : (string, (string, 'a) Hashtbl.t) Hashtbl.t;
      (* by the identity's first part, then its second: a probe builds no
         pair *)
}

type 'a key = { family : 'a t; id : id; disk : unit -> string list }

(* A flight is held by one domain at a time; [owner] is that domain's id,
   or -1.  Only the holder writes its own id, and it resets [owner] before
   unlocking, so a domain that reads its own id already holds the flight. *)
type flight = { mutex : Mutex.t; owner : int Atomic.t }

let registry = Mutex.create ()
let tags : string list ref = ref []
let resets : (unit -> unit) list ref = ref []
let flights : (id, flight) Hashtbl.t = Hashtbl.create 64

let make tag =
  let family = { tag; lock = Mutex.create (); tbl = Hashtbl.create 32 } in
  Mutex.protect registry (fun () ->
      Option.iter
        (fun t ->
          if List.mem t !tags then
            invalid_arg ("Memo.on_disk: " ^ t ^ " already has a family");
          tags := t :: !tags)
        tag;
      let reset () = Hashtbl.reset family.tbl in
      resets := (fun () -> Mutex.protect family.lock reset) :: !resets);
  family

let in_process () = make None
let on_disk tag = make (Some tag)

let key ?disk family id =
  match (family.tag, disk) with
  | Some tag, None -> invalid_arg ("Memo.key: " ^ tag ^ " needs disk parts")
  | _, Some disk -> { family; id; disk }
  | None, None -> { family; id; disk = (fun () -> []) }

let clear () =
  List.iter (fun reset -> reset ()) (Mutex.protect registry (fun () -> !resets))

let with_flight id f =
  let fl =
    Mutex.protect registry (fun () ->
        match Hashtbl.find_opt flights id with
        | Some fl -> fl
        | None ->
          let fl = { mutex = Mutex.create (); owner = Atomic.make (-1) } in
          Hashtbl.add flights id fl;
          fl)
  in
  let self = (Domain.self () :> int) in
  if Atomic.get fl.owner = self then f ()
  else begin
    Mutex.lock fl.mutex;
    Atomic.set fl.owner self;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set fl.owner (-1);
        Mutex.unlock fl.mutex)
      f
  end

let install k v =
  let (a, b), tbl = (k.id, k.family.tbl) in
  Mutex.protect k.family.lock (fun () ->
      if not (Hashtbl.mem tbl a) then Hashtbl.add tbl a (Hashtbl.create 8);
      Hashtbl.replace (Hashtbl.find tbl a) b v)

(* The render paths probe thousands of times: a hit allocates nothing. *)
let resident family a b =
  Mutex.lock family.lock;
  match Hashtbl.find (Hashtbl.find family.tbl a) b with
  | v ->
    Mutex.unlock family.lock;
    v
  | exception Not_found ->
    Mutex.unlock family.lock;
    raise Not_found

let disk_key_opt k =
  Option.map (fun tag -> Diskcache.key (tag :: k.disk ())) k.family.tag

let disk_key k = Option.get (disk_key_opt k)

let store k dk v =
  Option.iter (fun dk -> Diskcache.store dk v) dk;
  install k v

let put k v = store k (disk_key_opt k) v

(* The in-process entry, else the disk entry under [dk ()], installed. *)
let lookup k dk =
  match resident k.family (fst k.id) (snd k.id) with
  | v -> Some v
  | exception Not_found ->
    let v = Option.bind (dk ()) Diskcache.find in
    Option.iter (install k) v;
    v

let find k = lookup k (fun () -> disk_key_opt k)

(* The entry, else [compute ()] under the key's flight, stored unless
   the compute put it itself ([fill]). *)
let get_or ~stores k compute =
  match resident k.family (fst k.id) (snd k.id) with
  | v -> v
  | exception Not_found -> (
    let dk = disk_key_opt k in
    with_flight k.id @@ fun () ->
    match lookup k (fun () -> dk) with
    | Some v -> v
    | None ->
      let v = compute () in
      if stores then store k dk v;
      v)

let get k compute = get_or ~stores:true k compute

let fill k run =
  get_or ~stores:false k (fun () ->
      run ();
      try resident k.family (fst k.id) (snd k.id)
      with Not_found -> invalid_arg "Memo.fill: the run put no entry")
