type stats = { entries : int; bytes : int }

(* Results are versioned by a schema tag plus the running executable:
   a rebuilt simulator writes into a fresh directory, so stale results are
   never replayed and need no explicit invalidation scan. The schema tag
   moves with the layout of the marshalled values (2: [Stats.t]'s per-warp
   tables key on packed ints; 3: its per-warp instruction counts are one
   flat int array; 4: a cell is an [Outcome.t] — the run's metrics, its
   scalar [Stats.counters], the |Es| choice and the plan's sizes — with
   no [Stats.t], per-warp array or program; 5: a Figure 1 row keeps its
   rendered sparkline, not the per-instruction profile; 6: the counters
   hold the memory requests and their total latency). *)
let schema_version = 6

(* Marshalled records from a build with another value layout would be
   undefined behaviour, not a miss, so the build is named by its
   executable's size and mtime: one [stat], without reading its bytes.
   A process that cannot see its executable gets a directory of its own,
   named by its pid and the time of the call. *)
let simulator_tag = function
  | Some (size, mtime) -> Printf.sprintf "%d-%.6f" size mtime
  | None -> Printf.sprintf "pid%d-%.6f" (Unix.getpid ()) (Unix.gettimeofday ())

let simulator_version =
  lazy
    (simulator_tag
       (try
          let st = Unix.stat Sys.executable_name in
          Some (st.Unix.st_size, st.Unix.st_mtime)
        with Unix.Unix_error _ -> None))

let version_tag () =
  Printf.sprintf "v%d-%s" schema_version (Lazy.force simulator_version)

let lock = Mutex.create ()
let root_ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let version_dir root = Filename.concat root (version_tag ())

let file_of_key root k =
  Filename.concat (version_dir root) (Digest.to_hex (Digest.string k) ^ ".run")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let set_root dir = locked (fun () -> root_ref := dir)

let root () = locked (fun () -> !root_ref)

let load k =
  locked (fun () ->
      match !root_ref with
      | None -> None
      | Some root -> (
          try
            let fd = Unix.openfile (file_of_key root k) [ Unix.O_RDONLY ] 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                (* One exact-size read, no channel buffer. A truncated
                   entry fails in [Marshal.from_bytes], one that shrinks
                   while read ends early: both are misses. *)
                let buf = Bytes.create (Unix.fstat fd).Unix.st_size in
                let rec fill off =
                  if off < Bytes.length buf then
                    match Unix.read fd buf off (Bytes.length buf - off) with
                    | 0 -> raise End_of_file
                    | n -> fill (off + n)
                in
                fill 0;
                let stored_key, v = (Marshal.from_bytes buf 0 : string * 'a) in
                (* The file name is a digest; storing the key guards
                   against the (unlikely) digest collision. *)
                if String.equal stored_key k then Some v else None)
          with _ -> None))

let store k v =
  locked (fun () ->
      match !root_ref with
      | None -> ()
      | Some root -> (
          let path = file_of_key root k in
          try
            mkdir_p (Filename.dirname path);
            let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
            let oc = open_out_bin tmp in
            Marshal.to_channel oc (k, v) [];
            close_out oc;
            Sys.rename tmp path
          with Sys_error _ | Unix.Unix_error _ -> ()))

let stats () =
  locked (fun () ->
      match !root_ref with
      | None -> { entries = 0; bytes = 0 }
      | Some root ->
          let dir = version_dir root in
          Array.fold_left
            (fun s name ->
              if not (Filename.check_suffix name ".run") then s
              else
                try
                  let st = Unix.stat (Filename.concat dir name) in
                  { entries = s.entries + 1; bytes = s.bytes + st.Unix.st_size }
                with Unix.Unix_error _ -> s)
            { entries = 0; bytes = 0 }
            (try Sys.readdir dir with Sys_error _ -> [||]))
