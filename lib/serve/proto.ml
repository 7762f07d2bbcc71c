module Json = Repro_util.Json
module Plan = Repro_harness.Plan

type request =
  | Ping
  | Status
  | Shutdown
  | Sweep of Plan.spec
  | Render of string
  | Sleep of float

type error_code = Busy | Timeout | Bad_request | Server_error | Shutting_down

type status = {
  uptime_s : float;
  accepted : int;
  completed : int;
  failed : int;
  coalesced : int;
  batches : int;
  batched : int;
  max_batch : int;
  runs : int;
  queue_depth : int;
  timeouts : int;
  shed : int;
  disk_hits : int;
  disk_misses : int;
  latency_ms_sum : float;
  latency_ms_max : float;
}

type response =
  | Pong
  | Status_r of status
  | Sweep_r of { spec : Plan.spec; digest : string; batch : int; ms : float }
  | Render_r of { id : string; text : string }
  | Slept
  | Bye
  | Error_r of { code : error_code; message : string }

type 'a envelope = { id : int; deadline_ms : float option; payload : 'a }

let error_code_to_string = function
  | Busy -> "busy"
  | Timeout -> "timeout"
  | Bad_request -> "bad-request"
  | Server_error -> "server-error"
  | Shutting_down -> "shutting-down"

let error_code_of_string = function
  | "busy" -> Ok Busy
  | "timeout" -> Ok Timeout
  | "bad-request" -> Ok Bad_request
  | "server-error" -> Ok Server_error
  | "shutting-down" -> Ok Shutting_down
  | s -> Error (Printf.sprintf "unknown error code %S" s)

(* Envelope plumbing.  Every message is {"id":N,"op":...,...}; requests
   may add "deadline_ms".  Decoders thread [field] continuations over the
   member reads so any missing or ill-typed field collapses to one
   [Error] naming the field. *)

let field name conv j what k =
  match conv (Option.value ~default:Json.Null (Json.member name j)) with
  | Some v -> k v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed %S" what name)

let envelope_json ?deadline_ms ~id ms =
  Json.obj_ok
    (("id", Json.Int id)
    :: ( "deadline_ms",
         match deadline_ms with Some d -> Json.Float d | None -> Json.Null )
    :: ms)

let decode_envelope j what k =
  field "id" Json.to_int j what @@ fun id ->
  let deadline_ms = Option.bind (Json.member "deadline_ms" j) Json.to_float in
  field "op" Json.to_str j what @@ fun op ->
  Result.map (fun payload -> { id; deadline_ms; payload }) (k ~op j)

let request_to_json { id; deadline_ms; payload } =
  let ms =
    match payload with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Status -> [ ("op", Json.Str "status") ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
    | Sweep spec ->
      [ ("op", Json.Str "sweep"); ("spec", Json.Str (Plan.spec_to_string spec)) ]
    | Render rid -> [ ("op", Json.Str "render"); ("render", Json.Str rid) ]
    | Sleep ms -> [ ("op", Json.Str "sleep"); ("ms", Json.Float ms) ]
  in
  envelope_json ?deadline_ms ~id ms

let request_of_json j =
  decode_envelope j "request" @@ fun ~op j ->
  match op with
  | "ping" -> Ok Ping
  | "status" -> Ok Status
  | "shutdown" -> Ok Shutdown
  | "sweep" ->
    field "spec" Json.to_str j "sweep" @@ fun s ->
    Result.map (fun spec -> Sweep spec) (Plan.spec_of_string s)
  | "render" ->
    field "render" Json.to_str j "render" @@ fun rid -> Ok (Render rid)
  | "sleep" ->
    field "ms" Json.to_float j "sleep" @@ fun ms ->
    if Float.is_finite ms && ms >= 0. then Ok (Sleep ms)
    else Error "sleep: ms must be finite and non-negative"
  | op -> Error (Printf.sprintf "unknown request op %S" op)

let status_to_fields s =
  [
    ("uptime_s", Json.Float s.uptime_s);
    ("accepted", Json.Int s.accepted);
    ("completed", Json.Int s.completed);
    ("failed", Json.Int s.failed);
    ("coalesced", Json.Int s.coalesced);
    ("batches", Json.Int s.batches);
    ("batched", Json.Int s.batched);
    ("max_batch", Json.Int s.max_batch);
    ("runs", Json.Int s.runs);
    ("queue_depth", Json.Int s.queue_depth);
    ("timeouts", Json.Int s.timeouts);
    ("shed", Json.Int s.shed);
    ("disk_hits", Json.Int s.disk_hits);
    ("disk_misses", Json.Int s.disk_misses);
    ("latency_ms_sum", Json.Float s.latency_ms_sum);
    ("latency_ms_max", Json.Float s.latency_ms_max);
  ]

let status_of_json j =
  let int name k = field name Json.to_int j "status" k in
  let fl name k = field name Json.to_float j "status" k in
  fl "uptime_s" @@ fun uptime_s ->
  int "accepted" @@ fun accepted ->
  int "completed" @@ fun completed ->
  int "failed" @@ fun failed ->
  int "coalesced" @@ fun coalesced ->
  int "batches" @@ fun batches ->
  int "batched" @@ fun batched ->
  int "max_batch" @@ fun max_batch ->
  int "runs" @@ fun runs ->
  int "queue_depth" @@ fun queue_depth ->
  int "timeouts" @@ fun timeouts ->
  int "shed" @@ fun shed ->
  int "disk_hits" @@ fun disk_hits ->
  int "disk_misses" @@ fun disk_misses ->
  fl "latency_ms_sum" @@ fun latency_ms_sum ->
  fl "latency_ms_max" @@ fun latency_ms_max ->
  Ok
    {
      uptime_s;
      accepted;
      completed;
      failed;
      coalesced;
      batches;
      batched;
      max_batch;
      runs;
      queue_depth;
      timeouts;
      shed;
      disk_hits;
      disk_misses;
      latency_ms_sum;
      latency_ms_max;
    }

let response_to_json { id; deadline_ms; payload } =
  let ms =
    match payload with
    | Pong -> [ ("op", Json.Str "pong") ]
    | Status_r s -> ("op", Json.Str "status") :: status_to_fields s
    | Sweep_r { spec; digest; batch; ms } ->
      [
        ("op", Json.Str "sweep");
        ("spec", Json.Str (Plan.spec_to_string spec));
        ("digest", Json.Str digest);
        ("batch", Json.Int batch);
        ("ms", Json.Float ms);
      ]
    | Render_r { id; text } ->
      [ ("op", Json.Str "render"); ("render", Json.Str id);
        ("text", Json.Str text) ]
    | Slept -> [ ("op", Json.Str "slept") ]
    | Bye -> [ ("op", Json.Str "bye") ]
    | Error_r { code; message } ->
      [
        ("op", Json.Str "error");
        ("code", Json.Str (error_code_to_string code));
        ("message", Json.Str message);
      ]
  in
  envelope_json ?deadline_ms ~id ms

let response_of_json j =
  decode_envelope j "response" @@ fun ~op j ->
  match op with
  | "pong" -> Ok Pong
  | "status" -> Result.map (fun s -> Status_r s) (status_of_json j)
  | "sweep" ->
    field "spec" Json.to_str j "sweep" @@ fun s ->
    field "digest" Json.to_str j "sweep" @@ fun digest ->
    field "batch" Json.to_int j "sweep" @@ fun batch ->
    field "ms" Json.to_float j "sweep" @@ fun ms ->
    Result.map
      (fun spec -> Sweep_r { spec; digest; batch; ms })
      (Plan.spec_of_string s)
  | "render" ->
    field "render" Json.to_str j "render" @@ fun rid ->
    field "text" Json.to_str j "render" @@ fun text ->
    Ok (Render_r { id = rid; text })
  | "slept" -> Ok Slept
  | "bye" -> Ok Bye
  | "error" ->
    field "code" Json.to_str j "error" @@ fun code ->
    field "message" Json.to_str j "error" @@ fun message ->
    Result.map (fun code -> Error_r { code; message }) (error_code_of_string code)
  | op -> Error (Printf.sprintf "unknown response op %S" op)

let describe_request = function
  | Ping -> "ping"
  | Status -> "status"
  | Shutdown -> "shutdown"
  | Sweep s -> "sweep " ^ Plan.spec_to_string s
  | Render id -> "render " ^ id
  | Sleep ms -> Printf.sprintf "sleep %.1fms" ms
