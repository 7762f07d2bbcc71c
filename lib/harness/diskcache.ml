(* Persistent on-disk result cache.

   Values are marshaled to one file per key under the cache directory
   (default "_runs_cache", overridable with REPRO_CACHE_DIR or
   [set_dir]).  Keys are hex digests computed by {!key} over a list of
   string parts prefixed with the cache-format version, so any change to
   benchmark sources, target descriptions, compiler knobs, or the format
   itself changes the key and invalidates the entry.  Writes go through a
   temporary file and an atomic rename, making concurrent readers (other
   domains or processes) safe.

   Entries are checksummed.  The current (v2) envelope is the 4-byte
   magic "RRC2", a 4-byte little-endian CRC-32C of the marshaled
   payload, then the payload — CRC-32C because warm cache hits should
   not pay MD5 per byte of bulk result data ({!Repro_util.Crc32c} runs
   several times faster).  Anything else — an entry without the magic,
   or an unreadable, truncated, or corrupted one (Marshal would
   otherwise happily decode flipped bits into garbage values) — is
   treated as a miss and silently regenerated. *)

module Crc32c = Repro_util.Crc32c

let format_version = "repro-runs-cache-v2"
let envelope_magic = "RRC2"

let default_dir () =
  match Sys.getenv_opt "REPRO_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> "_runs_cache"

let default_enabled () = Sys.getenv_opt "REPRO_DISK_CACHE" <> Some "0"

let lock = Mutex.create ()
let dir_ref = ref (default_dir ())
let enabled_ref = ref (default_enabled ())
let hit_ref = ref 0
let miss_ref = ref 0

let with_lock f = Mutex.protect lock f
let dir () = with_lock (fun () -> !dir_ref)
let set_dir d = with_lock (fun () -> dir_ref := d)
let enabled () = with_lock (fun () -> !enabled_ref)
let set_enabled b = with_lock (fun () -> enabled_ref := b)
let hit_count () = with_lock (fun () -> !hit_ref)
let miss_count () = with_lock (fun () -> !miss_ref)

let key parts =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (format_version :: parts)))

let path_of k = Filename.concat (dir ()) (k ^ ".bin")

let ensure_dir () =
  let d = dir () in
  if not (Sys.file_exists d) then
    try Sys.mkdir d 0o755 with Sys_error _ -> ()

let subdir name =
  ensure_dir ();
  let d = Filename.concat (dir ()) name in
  if not (Sys.file_exists d) then
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let find (k : string) : 'a option =
  if not (enabled ()) then None
  else
    let p = path_of k in
    let v =
      if Sys.file_exists p then
        try
          In_channel.with_open_bin p (fun ic ->
              let contents = In_channel.input_all ic in
              let n = String.length contents in
              if n < 8 || String.sub contents 0 4 <> envelope_magic then None
              else
                let stored =
                  Char.code contents.[4]
                  lor (Char.code contents.[5] lsl 8)
                  lor (Char.code contents.[6] lsl 16)
                  lor (Char.code contents.[7] lsl 24)
                in
                if Crc32c.sub_string contents 8 (n - 8) <> stored then None
                else Some (Marshal.from_string contents 8))
        with _ -> None
      else None
    in
    with_lock (fun () ->
        if v = None then incr miss_ref else incr hit_ref);
    v

let store (k : string) (v : 'a) =
  if enabled () then begin
    ensure_dir ();
    let p = path_of k in
    (* Unique per process and domain: two processes sharing one cache
       both run on domain 0. *)
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" p (Unix.getpid ()) (Domain.self () :> int)
    in
    try
      Out_channel.with_open_bin tmp (fun oc ->
          let payload = Marshal.to_string v [] in
          let crc = Crc32c.string payload in
          let head = Bytes.create 8 in
          Bytes.blit_string envelope_magic 0 head 0 4;
          Bytes.set_int32_le head 4 (Int32.of_int crc);
          Out_channel.output_bytes oc head;
          Out_channel.output_string oc payload);
      Sys.rename tmp p
    with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())
  end

let memo (k : string) (compute : unit -> 'a) : 'a =
  match find k with
  | Some v -> v
  | None ->
    let v = compute () in
    store k v;
    v

let clear () =
  let d = dir () in
  if Sys.file_exists d && Sys.is_directory d then
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        try
          if Sys.is_directory p then begin
            (* One level of subdirectories (the trace store). *)
            Array.iter
              (fun g ->
                try Sys.remove (Filename.concat p g) with Sys_error _ -> ())
              (Sys.readdir p);
            Sys.rmdir p
          end
          else Sys.remove p
        with Sys_error _ -> ())
      (Sys.readdir d)
