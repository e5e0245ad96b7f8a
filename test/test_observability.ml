(* Json_check's printer on hostile inputs and the perf-trajectory
   report — including the gate's negative tests: a synthetic 20%
   regression and a vanished artifact must both fail. *)

module J = Telemetry.Json_check
module Report = Experiments.Report

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Json_check.to_string edge cases --------------------------------- *)

let test_json_escapes () =
  (* Every byte class the escaper must handle: quote, backslash, the
     named controls, an arbitrary low control, and 8-bit bytes (passed
     through untouched — the printer is encoding-agnostic). *)
  let hostile = "a\"b\\c\nd\te\rf\bg\012h\000i\031j\127caf\xc3\xa9" in
  let s = J.to_string (J.Str hostile) in
  Alcotest.(check bool) "no raw newline in output" true
    (not (String.contains s '\n'));
  (match J.parse s with
  | J.Str back -> Alcotest.(check string) "escape round-trip" hostile back
  | _ -> Alcotest.fail "did not parse back to a string");
  (* A key made of nothing but escapes survives an object round-trip. *)
  let obj = J.Obj [ (hostile, J.Bool true) ] in
  match J.parse (J.to_string obj) with
  | J.Obj [ (k, J.Bool true) ] -> Alcotest.(check string) "key survives" hostile k
  | _ -> Alcotest.fail "object round-trip failed"

let test_json_non_finite () =
  (* JSON has no NaN/Infinity literal: the printer must emit null, never
     an unparseable token. *)
  List.iter
    (fun v ->
      Alcotest.(check string) "non-finite prints null" "null"
        (J.to_string (J.Num v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let s = J.to_string (J.Obj [ ("ok", J.Num 1.5); ("bad", J.Num Float.nan) ]) in
  match J.parse s with
  | J.Obj [ ("ok", J.Num v); ("bad", J.Null) ] ->
      Alcotest.(check (float 0.)) "finite neighbour intact" 1.5 v
  | _ -> Alcotest.failf "unexpected parse of %s" s

let test_json_floats_round_trip () =
  List.iter
    (fun v ->
      match J.parse (J.to_string (J.Num v)) with
      | J.Num back ->
          Alcotest.(check bool)
            (Printf.sprintf "%h round-trips" v)
            true
            (Float.equal back v)
      | _ -> Alcotest.fail "not a number")
    [ 0.; -0.; 1.; -1.; 0.1; 1e-300; 1e300; 4096.; 3.565;
      Float.max_float; Float.min_float; 1. /. 3. ]

let test_json_deep_nesting () =
  (* 2000 levels of list nesting: printer and parser must both be
     iterative enough (or stack-frugal enough) to survive. *)
  let depth = 2000 in
  let rec build n = if n = 0 then J.Num 1. else J.List [ build (n - 1) ] in
  let deep = build depth in
  let s = J.to_string deep in
  let rec peel n j =
    match j with
    | J.List [ inner ] -> peel (n + 1) inner
    | J.Num _ -> n
    | _ -> Alcotest.fail "unexpected shape"
  in
  Alcotest.(check int) "depth preserved" depth (peel 0 (J.parse s))

(* --- perf-trajectory report -------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "regmutex_report" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let write dir name s =
  let oc = open_out (Filename.concat dir name) in
  output_string oc s;
  close_out oc

let cycle_json ?(speedup = 4.0) ?(identical = true) () =
  Printf.sprintf
    "{\"bench\": \"cycle_skip\", \"config\": \"quick\", \"max_speedup\": %g, \
     \"all_identical\": %b, \"cells\": []}"
    speedup identical

let regdem_json () =
  "{\"bench\": \"regdem\", \"config\": \"quick\", \"mean_occupancy_gain\": 1.7,\n\
   \"mean_energy_factor\": 2.1, \"all_identical\": true, \"demotion_applied\": true}"

let test_report_scan () =
  with_temp_dir (fun dir ->
      write dir "BENCH_cycle_skip.json" (cycle_json ());
      write dir "BENCH_regdem.json" (regdem_json ());
      write dir "BENCH_bogus.json" "{\"bench\": \"unknown\"}";
      write dir "BENCH_broken.json" "{not json";
      write dir "NOT_A_BENCH.json" "{}";
      let snap = Report.scan ~dir in
      Alcotest.(check (list string))
        "only known artifacts ingested"
        [ "BENCH_cycle_skip.json"; "BENCH_regdem.json" ]
        snap.Report.sources;
      let find key =
        match
          List.find_opt (fun m -> m.Report.key = key) snap.Report.metrics
        with
        | Some m -> m
        | None -> Alcotest.failf "metric %s missing" key
      in
      Alcotest.(check (float 1e-9)) "cycle metric" 4.0
        (find "cycle_skip.max_speedup").Report.value;
      Alcotest.(check (float 1e-9)) "occupancy gain" 1.7
        (find "regdem.mean_occupancy_gain").Report.value;
      let energy = find "regdem.mean_energy_factor" in
      Alcotest.(check (float 1e-9)) "energy factor" 2.1 energy.Report.value;
      Alcotest.(check bool) "a cost is lower-is-better" false
        energy.Report.higher_better;
      Alcotest.(check int) "invariants collected" 3
        (List.length snap.Report.invariants))

let test_report_baseline_round_trip () =
  with_temp_dir (fun dir ->
      write dir "BENCH_cycle_skip.json" (cycle_json ());
      write dir "BENCH_regdem.json" (regdem_json ());
      let snap = Report.scan ~dir in
      let path = Filename.concat dir "trajectory.json" in
      Report.write_baseline path snap;
      match Report.load_baseline path with
      | Error e -> Alcotest.failf "load_baseline: %s" e
      | Ok base ->
          Alcotest.(check int) "all metrics persisted"
            (List.length snap.Report.metrics)
            (List.length base);
          let o = Report.check snap base in
          Alcotest.(check int) "everything compared"
            (List.length snap.Report.metrics)
            (List.length o.Report.compared);
          Alcotest.(check (list (pair string string))) "nothing skipped" []
            o.Report.skipped;
          (match o.Report.geomean with
          | Some g -> Alcotest.(check (float 1e-9)) "self-geomean is 1" 1.0 g
          | None -> Alcotest.fail "no geomean");
          Alcotest.(check (list string)) "self-check passes" []
            o.Report.failures)

(* The acceptance negative test: degrade every metric by 20% (inflate the
   lower-is-better ones) and the 5%-tolerance check must fail, on the
   individual metrics and on the geomean. *)
let test_report_synthetic_regression () =
  with_temp_dir (fun dir ->
      write dir "BENCH_cycle_skip.json" (cycle_json ());
      write dir "BENCH_regdem.json" (regdem_json ());
      write dir "BENCH_telemetry_overhead.json"
        "{\"bench\": \"telemetry_overhead\", \"config\": \"quick\", \
         \"overhead_on_pct\": 2.0, \"all_identical\": true}";
      let snap = Report.scan ~dir in
      let inflated =
        List.map
          (fun m ->
            {
              m with
              Report.value =
                (if m.Report.higher_better then m.Report.value /. 0.8
                 else m.Report.value *. 0.8);
            })
          snap.Report.metrics
      in
      let o = Report.check snap inflated in
      (match o.Report.geomean with
      | Some g ->
          Alcotest.(check bool) "geomean reflects the 20% drop" true
            (Float.abs (g -. 0.8) < 1e-6)
      | None -> Alcotest.fail "no geomean");
      Alcotest.(check int) "every metric flagged plus the geomean"
        (List.length snap.Report.metrics + 1)
        (List.length o.Report.failures);
      (* Within tolerance: a 3% dip passes a 5% gate but fails a 1% one. *)
      let slight =
        List.map
          (fun m ->
            {
              m with
              Report.value =
                (if m.Report.higher_better then m.Report.value /. 0.97
                 else m.Report.value *. 0.97);
            })
          snap.Report.metrics
      in
      Alcotest.(check (list string)) "3% dip passes at 5%" []
        (Report.check ~tolerance:0.05 snap slight).Report.failures;
      Alcotest.(check bool) "3% dip fails at 1%" true
        ((Report.check ~tolerance:0.01 snap slight).Report.failures <> []))

let test_report_invariants_and_skips () =
  with_temp_dir (fun dir ->
      write dir "BENCH_cycle_skip.json" (cycle_json ~identical:false ());
      let snap = Report.scan ~dir in
      (* A false invariant fails even with no baseline to compare. *)
      let o = Report.check snap [] in
      Alcotest.(check bool) "false invariant fails" true
        (List.exists
           (fun f -> contains f "cycle_skip.all_identical")
           o.Report.failures);
      (* Config mismatch is a skip, not a comparison. *)
      let full_base =
        [
          {
            Report.key = "cycle_skip.max_speedup";
            value = 100.0;
            higher_better = true;
            config = "full";
          };
        ]
      in
      let o = Report.check snap full_base in
      Alcotest.(check int) "config mismatch not compared" 0
        (List.length o.Report.compared);
      Alcotest.(check bool) "config mismatch reported as skip" true
        (List.exists
           (fun (k, why) ->
             k = "cycle_skip.max_speedup" && contains why "config mismatch")
           o.Report.skipped);
      Alcotest.(check bool) "config mismatch does not fail" false
        (List.exists
           (fun f -> contains f "cycle_skip.max_speedup")
           o.Report.failures);
      (* A baseline key no artifact reports (its BENCH_*.json was deleted
         or renamed) fails the gate. *)
      let vanished =
        {
          Report.key = "regdem.mean_occupancy_gain";
          value = 1.7;
          higher_better = true;
          config = "quick";
        }
      in
      let o = Report.check snap [ vanished ] in
      Alcotest.(check bool) "missing baseline key fails" true
        (List.exists
           (fun f -> contains f "regdem.mean_occupancy_gain")
           o.Report.failures))

let test_report_repo_root () =
  match Report.find_repo_root () with
  | None -> Alcotest.fail "dune-project not found from the test's cwd"
  | Some root ->
      Alcotest.(check bool) "root has dune-project" true
        (Sys.file_exists (Filename.concat root "dune-project"))

let suite =
  [ Alcotest.test_case "json: escape-heavy strings round-trip" `Quick
      test_json_escapes;
    Alcotest.test_case "json: non-finite floats print null" `Quick
      test_json_non_finite;
    Alcotest.test_case "json: float formatting round-trips" `Quick
      test_json_floats_round_trip;
    Alcotest.test_case "json: 2000-deep nesting survives" `Quick
      test_json_deep_nesting;
    Alcotest.test_case "report: scan normalizes known artifacts" `Quick
      test_report_scan;
    Alcotest.test_case "report: baseline round-trip self-check" `Quick
      test_report_baseline_round_trip;
    Alcotest.test_case "report: 20% synthetic regression fails" `Quick
      test_report_synthetic_regression;
    Alcotest.test_case "report: invariants and config skips" `Quick
      test_report_invariants_and_skips;
    Alcotest.test_case "report: repo root discovery" `Quick
      test_report_repo_root ]
