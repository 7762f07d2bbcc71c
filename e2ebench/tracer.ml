(* Spans and counters recorded by the benchmark around calls into the
   system's public functions.  Off by default, when each call costs one
   branch.  Spans stay in memory until [to_json] writes them out.

   A span's parent is the span open on the main thread when it started;
   [record] adds a finished top-level span from any thread (the serve
   load threads use it). *)

module Json = Repro_util.Json

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 for a top-level span. *)
  req : int;  (** Request or item id; 0 when there is none. *)
}

let on = ref false
let now = Unix.gettimeofday
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 1
let open_stack : int list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record ?(req = 0) name ~start ~stop =
  if !on then
    Mutex.protect lock (fun () ->
        spans :=
          { id = fresh_id (); name; start; stop; parent = 0; req } :: !spans)

let span ?(req = 0) name f =
  if not !on then f ()
  else begin
    let id, parent =
      Mutex.protect lock (fun () ->
          let id = fresh_id () in
          let parent = match !open_stack with p :: _ -> p | [] -> 0 in
          open_stack := id :: !open_stack;
          (id, parent))
    in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        Mutex.protect lock (fun () ->
            open_stack := List.tl !open_stack;
            spans := { id; name; start; stop; parent; req } :: !spans))
  end

let add name v =
  if !on then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counters name
          (v +. Option.value ~default:0. (Hashtbl.find_opt counters name)))

let spans () = List.rev !spans

let counters () =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [])

(* Self time of each span name: a span's duration minus the part its
   children cover.  Children of one span never overlap (they ran on the
   same thread), so their durations simply add. *)
let self_times (ss : span list) =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    ss;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    ss;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt self name)

let span_to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("name", Json.Str s.name);
      ("start", Json.Float s.start);
      ("stop", Json.Float s.stop);
      ("parent", Json.Int s.parent);
      ("req", Json.Int s.req);
    ]

let span_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  match
    ( int "id",
      Option.bind (Json.member "name" j) Json.to_str,
      flt "start",
      flt "stop",
      int "parent",
      int "req" )
  with
  | Some id, Some name, Some start, Some stop, Some parent, Some req ->
    Some { id; name; start; stop; parent; req }
  | _ -> None

let to_json () =
  Json.Obj
    [
      ("spans", Json.Arr (List.map span_to_json (spans ())));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (counters ())) );
    ]

let spans_of_json j =
  match Option.bind (Json.member "spans" j) Json.to_list with
  | Some l -> List.filter_map span_of_json l
  | None -> []

let counters_of_json j =
  match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
      kvs
  | _ -> []
