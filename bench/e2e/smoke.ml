(* Smoke test of the end-to-end benchmark: every workload at a tiny size,
   traced and untraced; BENCHMARK.json against the metric catalog; per-op
   failure accounting; and the negative test of layer attribution — a
   +10% delay injected around one layer call must show up in that
   layer's self time and in no other. *)

open E2e_bench
module J = Telemetry.Json_check

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let finite x = Float.is_finite x

let has_metrics what (o : Bench.outcome) (catalog : Catalog.metric list) =
  List.iter
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.Catalog.name o.Bench.metrics with
      | Some v -> check (Printf.sprintf "%s: %s is finite" what m.Catalog.name) (finite v)
      | None -> check (Printf.sprintf "%s: %s reported" what m.Catalog.name) false)
    catalog;
  check
    (what ^ ": every metric has a catalog unit")
    (List.for_all (fun (n, _) -> Bench.unit_of n <> "") o.Bench.metrics);
  check (what ^ ": one value per metric")
    (List.length o.Bench.metrics = List.length catalog)

let workloads () =
  List.iter
    (fun (w : Work.t) ->
      let plain = Bench.run ~size:Work.Tiny ~workload:w ~seed:1 ~seconds:0. ~trace:false () in
      check (w.Work.name ^ " correct") (Bench.correct plain);
      check (w.Work.name ^ " ran ops") (plain.Bench.attempted >= 1);
      has_metrics w.Work.name plain Catalog.end_to_end;
      let traced = Bench.run ~size:Work.Tiny ~workload:w ~seed:1 ~seconds:0. ~trace:true () in
      check (w.Work.name ^ " traced run correct") (Bench.correct traced);
      check (w.Work.name ^ " traced output matches") (traced.Bench.identity = plain.Bench.identity);
      has_metrics (w.Work.name ^ " traced") traced Catalog.per_layer;
      match traced.Bench.trace_file with
      | Some f ->
          let s = In_channel.with_open_bin f In_channel.input_all in
          check (w.Work.name ^ " trace validates")
            (Result.is_ok (J.validate_chrome_trace s));
          Sys.remove f
      | None -> check (w.Work.name ^ " wrote a trace") false)
    Work.all

(* The benchmark definition at the repository root lists exactly the
   workloads and metrics the code reports. *)
let benchmark_json () =
  let j = J.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let field k = function J.Obj l -> List.assoc k l | _ -> J.Null in
  let str = function J.Str s -> s | _ -> "" in
  let list = function J.List l -> l | _ -> [] in
  check "BENCHMARK.json workloads"
    (List.map (fun w -> str (field "name" w)) (list (field "workloads" j))
    = List.map (fun w -> w.Work.name) Work.all);
  let metrics key catalog =
    check ("BENCHMARK.json " ^ key)
      (List.map
         (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
         (list (field key j))
      = List.map
          (fun (m : Catalog.metric) ->
            ( m.Catalog.name,
              m.Catalog.unit_,
              if m.Catalog.higher_is_better then "higher" else "lower" ))
          catalog)
  in
  metrics "end_to_end" Catalog.end_to_end;
  metrics "per_layer" Catalog.per_layer

(* An op that raises is counted, named, and the run keeps going. *)
let failure_accounting () =
  let flaky =
    { Work.fuzz with
      setup =
        (fun size ~seed ->
          let inst = Work.fuzz.Work.setup size ~seed in
          { inst with
            Work.op =
              (fun i ->
                if i = 2 then { Work.id = "2"; run = (fun () -> failwith "boom") }
                else inst.Work.op i) }) }
  in
  let o = Bench.run ~size:Work.Tiny ~workload:flaky ~seed:0 ~seconds:0. ~trace:false () in
  check "failed op counted" (o.Bench.failed_ids = [ ("2", "boom") ]);
  check "run continues past a failed op" (o.Bench.attempted = 4);
  check "failed op makes the run incorrect" (not (Bench.correct o))

let quantiles () =
  check "quartiles match Python's exclusive method"
    (Stat.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] = (2.75, 5.5, 8.25)
    && Stat.quartiles [ 3.; 1. ] = (0.5, 2., 3.5))

(* Negative test: run the probe pass over the same inputs with and
   without a +10% delay around [Technique.prepare], alternating, and
   compare each layer's self time (the minimum over repeats per input,
   which filters out scheduling noise). *)
let attribution () =
  let injected = "regmutex.prepare" in
  let inputs =
    List.init 24 (fun seed -> Fuzz.Gen.generate ~seed)
    |> List.filter (fun c -> c.Fuzz.Gen.family <> Fuzz.Gen.Divergent)
    |> List.map (fun c ->
           { Layers.arch = Work.fuzz_arch; kernel = Fuzz.Gen.kernel c; uniform = true })
  in
  let best = Hashtbl.create 64 in
  let record side j =
    List.iter
      (fun ((s : Span.t), self) ->
        let key = (side, s.Span.name, j) in
        match Hashtbl.find_opt best key with
        | Some v when v <= self -> ()
        | _ -> Hashtbl.replace best key self)
      (Span.self_times (Span.spans ()))
  in
  Span.on := true;
  for _ = 1 to 5 do
    List.iteri
      (fun j inp ->
        List.iter
          (fun side ->
            Span.reset ();
            Span.inject := if side = `Injected then Some (injected, 0.10) else None;
            (* Same heap state on both sides, so garbage-collector work
               lands in the same spans. *)
            Gc.full_major ();
            ignore (Layers.probe [ inp ]);
            record side j)
          [ `Clean; `Injected ])
      inputs
  done;
  Span.on := false;
  Span.inject := None;
  Span.reset ();
  let total side name =
    Hashtbl.fold (fun (s, n, _) v acc -> if s = side && n = name then acc +. v else acc) best 0.
  in
  let names =
    List.sort_uniq compare (Hashtbl.fold (fun (_, n, _) _ acc -> n :: acc) best [])
  in
  let delta name = total `Injected name -. total `Clean name in
  let ratio name = total `Injected name /. total `Clean name in
  let gain = delta injected in
  Printf.printf "attribution: %s self time x%.3f (%+.1f us)\n" injected (ratio injected)
    (gain *. 1e6);
  check
    (Printf.sprintf "injected delay attributed to %s (x%.3f)" injected (ratio injected))
    (ratio injected > 1.05 && ratio injected < 1.3);
  List.iter
    (fun name ->
      if name <> injected then
        check
          (Printf.sprintf "injected delay not attributed to %s (x%.3f, %+.1f us)" name
             (ratio name) (delta name *. 1e6))
          (ratio name < 1.05 || delta name < 0.5 *. gain))
    names

let () =
  Bench.setup_child ();
  let t0 = Unix.gettimeofday () in
  quantiles ();
  benchmark_json ();
  failure_accounting ();
  workloads ();
  attribution ();
  Printf.printf "e2e smoke: %d failure(s) in %.1fs\n" !failures (Unix.gettimeofday () -. t0);
  if !failures > 0 then exit 1
