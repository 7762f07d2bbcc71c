(* The metrics and workloads declared in BENCHMARK.json, the one place
   their names, units, directions and bounds are written down. *)

module Json = Repro_util.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** 0 for per-layer metrics, which have none. *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () =
  let j =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list) in
  let str k m = Option.bind (Json.member k m) Json.to_str in
  let metric m =
    match (str "name" m, str "unit" m, str "better" m) with
    | Some name, Some unit_, Some better ->
      {
        name;
        unit_;
        lower_is_better = better = "lower";
        bound = Option.value ~default:0. (Option.bind (Json.member "bound" m) Json.to_float);
      }
    | _ -> failwith (path ^ ": malformed metric " ^ Json.to_string m)
  in
  {
    workloads = List.filter_map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }
