(* Pinned results: the run fingerprint of every quick-grid cell (Table I
   plus the latency-bound registry, under every technique) must equal the
   committed golden file. Comparing two modes of the current simulator
   with each other passes a change that moves both equally; comparing
   each with the results of an earlier build does not.

   Every execution mode must give the file's lines. [Runner.execute]
   with [Runner.fingerprint] runs each cell fast-forwarded, brute force,
   with a telemetry trace attached, under --simt with warps collapsed (no
   kernel of the grid reads [%laneid], so none may expand), and under
   --simt lane-resolved from launch and brute force: each of those is
   meant to be invisible in the results. The experiment engine's
   outcomes, with [Outcome.fingerprint], are served cold into a temporary
   result store and then replayed warm from it, which pins what a stored
   cell keeps to what a fresh run reports.

   [golden_fingerprints.txt] holds one "workload technique fingerprint"
   line per cell, in registry × [Technique.all] order. A change that is
   meant to alter simulated results updates it from the lines the failure
   message prints. *)

module Runner = Regmutex.Runner
module Technique = Regmutex.Technique

(* Read from beside the test executable, where dune copies it, so the
   test also runs from any working directory via [dune exec]. *)
let golden_file =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "golden_fingerprints.txt"

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let cfg = Experiments.Exp_config.quick

(* One "workload technique fingerprint" line per cell, [fingerprint arch t
   spec] giving the last field. *)
let cells fingerprint =
  List.concat_map
    (fun spec ->
      let arch = Experiments.Exp_config.eval_arch cfg spec in
      List.map
        (fun t ->
          Printf.sprintf "%s %s %s" spec.Workloads.Spec.name (Technique.name t)
            (fingerprint arch t spec))
        Technique.all)
    (Workloads.Registry.all @ Workloads.Registry.latency_bound)

let check_golden golden path actual =
  Alcotest.(check int) (path ^ ": cell count") 102 (List.length actual);
  let moved = List.filter (fun l -> not (List.mem l golden)) actual in
  if moved <> [] || List.length golden <> List.length actual then
    Alcotest.failf "%s: %d of %d cells differ from %s; new lines:\n%s" path
      (List.length moved) (List.length actual) golden_file
      (String.concat "\n" moved)

let execute ?options ?fast_forward ?lane_resolved ?telemetry arch t spec =
  Runner.execute ?options ?fast_forward ?lane_resolved ?telemetry arch t
    (Experiments.Exp_config.kernel_of cfg spec)

let test_quick_grid_fingerprints () =
  let golden = read_golden () in
  let runner what execute =
    check_golden golden what
      (cells (fun arch t spec -> Runner.fingerprint (execute arch t spec)))
  in
  let simt = { Technique.default_options with Technique.simt = true } in
  runner "Runner.execute" execute;
  runner "brute force" (execute ~fast_forward:false);
  runner "telemetry trace" (fun arch t spec ->
      execute ~telemetry:(Telemetry.Trace.create ()) arch t spec);
  runner "--simt collapsed" (fun arch t spec ->
      let r = execute ~options:simt arch t spec in
      Alcotest.(check int)
        (Printf.sprintf "--simt collapsed: %s/%s lane expansions"
           spec.Workloads.Spec.name (Technique.name t))
        0 r.Runner.stats.Gpu_sim.Stats.lane_expansions;
      r);
  runner "--simt lane-resolved, brute force"
    (execute ~options:simt ~lane_resolved:true ~fast_forward:false);
  let module Engine = Experiments.Engine in
  let engine arch t spec =
    Regmutex.Outcome.fingerprint (Engine.run cfg ~arch t spec)
  in
  Fun.protect ~finally:(fun () ->
      Engine.set_cache_dir None;
      Engine.clear ())
  @@ fun () ->
  Util.with_store_dir @@ fun _ ->
  check_golden golden "Engine.run, cold store" (cells engine);
  (* Nothing in memory: every cell comes back from the store alone. *)
  Engine.clear ();
  let computed = Engine.simulations () in
  check_golden golden "Engine.run, warm store" (cells engine);
  Alcotest.(check int) "the warm store computes nothing" computed
    (Engine.simulations ())

let suite =
  [ Alcotest.test_case "quick-grid fingerprints match the golden file" `Quick
      test_quick_grid_fingerprints ]
