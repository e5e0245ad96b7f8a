(* Pinned results: the run fingerprint of every quick-grid cell (Table I
   plus the latency-bound registry, under every technique) must equal the
   committed golden file. The fast-forward/brute-force identity checks
   compare two modes of the current simulator against each other, so a
   change that moves both equally passes them; this test compares against
   the results of an earlier build instead.

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

let cells () =
  let cfg = Experiments.Exp_config.quick in
  List.concat_map
    (fun spec ->
      let arch = Experiments.Exp_config.eval_arch cfg spec in
      let kernel = Experiments.Exp_config.kernel_of cfg spec in
      List.map
        (fun t ->
          Printf.sprintf "%s %s %s" spec.Workloads.Spec.name (Technique.name t)
            (Runner.fingerprint (Runner.execute arch t kernel)))
        Technique.all)
    (Workloads.Registry.all @ Workloads.Registry.latency_bound)

let test_quick_grid_fingerprints () =
  let golden = read_golden () in
  let actual = cells () in
  Alcotest.(check int) "cell count" 102 (List.length actual);
  let moved = List.filter (fun l -> not (List.mem l golden)) actual in
  if moved <> [] || List.length golden <> List.length actual then
    Alcotest.failf "%d of %d cells differ from %s; new lines:\n%s"
      (List.length moved) (List.length actual) golden_file
      (String.concat "\n" moved)

let suite =
  [ Alcotest.test_case "quick-grid fingerprints match the golden file" `Quick
      test_quick_grid_fingerprints ]
