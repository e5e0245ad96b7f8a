(* One benchmark run: set-up, the timed ops, output checks, and the
   metrics. *)

type outcome = {
  workload : string;
  seed : int;
  attempted : int;
  failed_ids : (string * string) list;  (** op id, failure kind *)
  errors : string list;  (** failed output checks *)
  identity : string;  (** digest over every op's output *)
  metrics : (string * float) list;
  trace_file : string option;
}

let correct o = o.errors = [] && o.failed_ids = []

(* Set-up is timed [min_setups] or more times, until [setup_seconds]
   have passed, and [setup_s] is the median: a set-up of a few
   milliseconds needs many samples to pin down. The timed part makes at
   least [min_passes] passes, and more until its ops have taken the run's
   seconds. *)
let min_setups = function Work.Full -> 3 | Work.Tiny -> 1
let setup_seconds = function Work.Full -> 1. | Work.Tiny -> 0.
let min_passes ~trace = function
  | Work.Full -> if trace then 4 else 3
  | Work.Tiny -> if trace then 2 else 1

let classify = function
  | Gpu_sim.Gpu.Deadlock _ -> "deadlock"
  | Gpu_sim.Sm.Verification_failure _ -> "verification"
  | Failure m -> m
  | e -> "exception " ^ Printexc.to_string e

let now = Unix.gettimeofday
let total = List.fold_left ( +. ) 0.

let size_name = function Work.Full -> "full" | Work.Tiny -> "tiny"

(* Set-up is timed in a fresh process of this executable, from spawn to
   exit: program start-up (every library's module initialisation, which
   a user pays on every CLI invocation), the workload's set-up, and exit.
   Timing it out of process also keeps the repetitions from inflating
   the measuring process's heap. *)
let timed_setup (workload : Work.t) size ~seed =
  let exe = Sys.executable_name in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "setup"; workload.Work.name; string_of_int seed; size_name size |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> now () -. t0
  | _ -> failwith ("e2e: set-up of " ^ workload.Work.name ^ " failed")

(* The child side of [timed_setup]. Every executable that calls [run]
   must call this before anything else. *)
let setup_child () =
  match Sys.argv with
  | [| _; "setup"; name; seed; size |] ->
      let workload = Option.get (Work.find name) in
      Work.mkdir_p (Work.tmp_root ());
      ignore
        (workload.Work.setup
           (if size = size_name Work.Tiny then Work.Tiny else Work.Full)
           ~seed:(int_of_string seed));
      Work.cleanup ();
      exit 0
  | _ -> ()

let run ?(size = Work.Full) ~(workload : Work.t) ~seed ~seconds ~trace () =
  Work.mkdir_p (Work.tmp_root ());
  Experiments.Engine.set_cache_dir None;
  Experiments.Engine.clear ();
  Fun.protect ~finally:Work.cleanup @@ fun () ->
  let inst = workload.Work.setup size ~seed in
  Gc.compact ();
  (* Each op's best time over the passes, untraced and traced. *)
  let best = Hashtbl.create 64 and best_traced = Hashtbl.create 64 in
  let outputs = Hashtbl.create 64 in
  let failed = ref [] and errors = ref [] in
  let sims = ref 0 and attempted = ref 0 and timed = ref 0. in
  let run_once ~traced i (op : Work.op) =
    Span.on := traced;
    Span.current_op := i;
    Telemetry.Profile.set_enabled traced;
    let s0 = Experiments.Engine.simulations () in
    let t0 = now () in
    let result =
      match Span.with_span ~profile:true "op" op.Work.run with
      | digest -> Ok digest
      | exception e -> Error (classify e)
    in
    let dt = now () -. t0 in
    timed := !timed +. dt;
    Span.on := false;
    Telemetry.Profile.set_enabled false;
    incr attempted;
    sims := !sims + Experiments.Engine.simulations () - s0;
    (let tbl = if traced then best_traced else best in
     match Hashtbl.find_opt tbl op.Work.id with
     | Some b when b <= dt -> ()
     | _ -> Hashtbl.replace tbl op.Work.id dt);
    match result with
    | Ok d -> d
    | Error kind ->
        failed := (op.Work.id, kind) :: !failed;
        Printf.eprintf "e2e: %s op %s failed: %s\n%!" workload.Work.name op.Work.id kind;
        "failed: " ^ kind
  in
  let pass_len = inst.Work.pass_len in
  (* A traced run alternates untraced and traced passes and ends after a
     traced one, so the tracing overhead compares the same ops, each at
     its best on both sides. *)
  let passes = min_passes ~trace size in
  let block = if trace then 2 * pass_len else pass_len in
  let n = ref 0 and heap_words = ref 0 in
  let step () =
    let i = !n in
    let op = inst.Work.op i in
    let out = run_once ~traced:(trace && i / pass_len mod 2 = 1) i op in
    (match Hashtbl.find_opt outputs op.Work.id with
    | Some prev when prev <> out ->
        errors := Printf.sprintf "op %s output changed between passes" op.Work.id :: !errors
    | Some _ -> ()
    | None -> Hashtbl.replace outputs op.Work.id out);
    incr n;
    (* The peak after a fixed number of passes, so it does not depend on
       how many more the run's time allowed. *)
    if !n = passes * pass_len then heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  in
  let run_until target = while !timed < target || !n mod block <> 0 do step () done in
  (* The timed set-ups run between slices of the timed ops, so the ops
     sample a longer stretch of the host's time than the run's seconds
     alone: contention can last longer than a slice. *)
  let setup_times = ref [] in
  let time_setup () = setup_times := timed_setup workload size ~seed :: !setup_times in
  let k = min_setups size in
  for j = 1 to k do
    time_setup ();
    run_until (seconds *. float_of_int j /. float_of_int k)
  done;
  while total !setup_times < setup_seconds size do
    time_setup ()
  done;
  while !n < passes * pass_len || !n mod block <> 0 do
    step ()
  done;
  (match inst.Work.finish () with Ok () -> () | Error e -> errors := e :: !errors);
  let identity =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string (List.sort compare (List.of_seq (Hashtbl.to_seq outputs))) []))
  in
  let heap_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576. in
  (* Each op at its best over the passes: contention from other tenants
     of the host comes in bursts of seconds, which the best of several
     passes filters out. *)
  let pass_s tbl = total (List.of_seq (Hashtbl.to_seq_values tbl)) in
  let metrics, trace_file =
    if not trace then
      ( [ ("wall_s", pass_s best);
          ("peak_heap_mb", heap_mb);
          ("setup_s", Stat.median !setup_times) ],
        None )
    else begin
      Span.on := true;
      Span.current_op := -1;
      let sim = Layers.probe (inst.Work.probe_inputs ()) in
      Span.on := false;
      List.iter (fun m -> errors := m :: !errors) sim.Layers.mismatches;
      let spans = Span.spans () in
      let store = Experiments.Result_store.stats () in
      let extra =
        [ ("experiments.simulations_per_op", float_of_int !sims /. float_of_int !attempted);
          ("experiments.store_entries", float_of_int store.Experiments.Result_store.entries);
          ( "experiments.store_kib",
            float_of_int store.Experiments.Result_store.bytes /. 1024. );
          ("trace.overhead", pass_s best_traced /. pass_s best);
          ("trace.spans", float_of_int (List.length spans)) ]
      in
      let file =
        Filename.concat Work.scratch_dir
          (Printf.sprintf "trace-%s-%d.json" workload.Work.name seed)
      in
      let json = Span.chrome_trace spans in
      Out_channel.with_open_bin file (fun oc -> output_string oc json);
      (match Telemetry.Json_check.validate_chrome_trace json with
      | Ok _ -> ()
      | Error e -> errors := ("chrome trace invalid: " ^ e) :: !errors);
      (Layers.metrics ~spans ~sim ~extra, Some file)
    end
  in
  Span.reset ();
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  let metrics =
    List.map
      (fun (m : Catalog.metric) -> (m.Catalog.name, List.assoc m.Catalog.name metrics))
      catalog
  in
  { workload = workload.Work.name;
    seed;
    attempted = !attempted;
    failed_ids = List.rev !failed;
    errors = List.rev !errors;
    identity;
    metrics;
    trace_file }

(* --- output ----------------------------------------------------------------- *)

let unit_of name =
  match Catalog.find name with Some m -> m.Catalog.unit_ | None -> ""

(* The last line of a run's output: the result object tools read. *)
let result_json o =
  let open Telemetry.Json_check in
  to_string
    (Obj
       [ ("correct", Bool (correct o));
         ("attempted", Num (float_of_int o.attempted));
         ("failed", Num (float_of_int (List.length o.failed_ids)));
         ( "metrics",
           Obj
             (List.map
                (fun (name, v) ->
                  (name, Obj [ ("value", Num v); ("unit", Str (unit_of name)) ]))
                o.metrics) ) ])

(* The line before it: identity digest, failing op ids and failed checks,
   which [e2e] rounds and compare keep. *)
let detail_json o =
  let open Telemetry.Json_check in
  to_string
    (Obj
       [ ("workload", Str o.workload);
         ("seed", Num (float_of_int o.seed));
         ("identity", Str o.identity);
         ( "failed_ids",
           List (List.map (fun (id, k) -> List [ Str id; Str k ]) o.failed_ids) );
         ("errors", List (List.map (fun e -> Str e) o.errors)) ])

let print o =
  Printf.printf "e2e: %s seed %d: %d ops, %d failed, identity %s%s\n" o.workload o.seed
    o.attempted (List.length o.failed_ids) o.identity
    (match o.trace_file with Some f -> ", trace " ^ f | None -> "");
  List.iter (fun e -> Printf.printf "e2e: check failed: %s\n" e) o.errors;
  List.iter
    (fun (name, v) -> Printf.printf "  %-36s %14.4f %s\n" name v (unit_of name))
    o.metrics;
  print_endline (detail_json o);
  print_endline (result_json o)
