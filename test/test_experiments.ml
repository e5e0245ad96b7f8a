module E = Experiments

let tiny =
  (* Very small grids keep these integration tests quick. *)
  { E.Exp_config.default with E.Exp_config.grid_scale = 0.1 }

let test_table_render () =
  let out =
    E.Table.render
      ~columns:[ ("a", E.Table.Left); ("bb", E.Table.Right) ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + rows" 4 (List.length lines);
  (* Right-aligned column pads on the left. *)
  Alcotest.(check bool) "right aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Table.render: row 0 has wrong arity") (fun () ->
      ignore (E.Table.render ~columns:[ ("a", E.Table.Left) ] [ [ "x"; "y" ] ]))

let test_table_cells () =
  Alcotest.(check string) "pct" "12.3%" (E.Table.pct 12.34);
  Alcotest.(check string) "occ" "67%" (E.Table.occ 0.667);
  Alcotest.(check (float 1e-9)) "mean" 2. (E.Table.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (E.Table.mean [])

let test_exp_config () =
  let cfg = E.Exp_config.default in
  Alcotest.(check int) "4-SM slice" 4 cfg.E.Exp_config.arch.Gpu_uarch.Arch_config.n_sms;
  Alcotest.(check int) "half register file"
    (cfg.E.Exp_config.arch.Gpu_uarch.Arch_config.regfile_regs / 2)
    cfg.E.Exp_config.half_arch.Gpu_uarch.Arch_config.regfile_regs;
  let bfs = Workloads.Registry.find "BFS" in
  let k = E.Exp_config.kernel_of E.Exp_config.quick bfs in
  Alcotest.(check bool) "quick grids smaller" true
    (k.Gpu_sim.Kernel.grid_ctas < bfs.Workloads.Spec.kernel.Gpu_sim.Kernel.grid_ctas);
  Alcotest.(check bool) "fig7 set on full RF" true
    (E.Exp_config.eval_arch cfg bfs == cfg.E.Exp_config.arch);
  Alcotest.(check bool) "fig8 set on half RF" true
    (E.Exp_config.eval_arch cfg (Workloads.Registry.find "SPMV")
    == cfg.E.Exp_config.half_arch)

let test_engine_caching () =
  E.Engine.clear ();
  let bfs = Workloads.Registry.find "Gaussian" in
  let misses0 = E.Engine.simulations () in
  let r1 = E.Engine.run tiny ~arch:tiny.E.Exp_config.arch Regmutex.Technique.Baseline bfs in
  let misses1 = E.Engine.simulations () in
  let r2 = E.Engine.run tiny ~arch:tiny.E.Exp_config.arch Regmutex.Technique.Baseline bfs in
  let misses2 = E.Engine.simulations () in
  Alcotest.(check int) "first run simulates" (misses0 + 1) misses1;
  Alcotest.(check int) "second run cached" misses1 misses2;
  Alcotest.(check int) "same result" r1.Regmutex.Outcome.cycles r2.Regmutex.Outcome.cycles;
  (* Different es_override is a different key. *)
  let _ =
    E.Engine.run ~es_override:4 tiny ~arch:tiny.E.Exp_config.arch
      Regmutex.Technique.Regmutex bfs
  in
  Alcotest.(check int) "override misses" (misses2 + 1) (E.Engine.simulations ())

let test_engine_key_precision () =
  let bfs = Workloads.Registry.find "BFS" in
  let arch = tiny.E.Exp_config.arch in
  let key_at scale =
    E.Engine.key
      { tiny with E.Exp_config.grid_scale = scale }
      ~arch Regmutex.Technique.Baseline bfs
  in
  (* Scales that a "%.3f" rendering would conflate must stay distinct. *)
  Alcotest.(check bool) "1e-5 apart" true (key_at 1.0 <> key_at 1.00001);
  Alcotest.(check bool) "sub-milli scales" true (key_at 1e-4 <> key_at 2e-4);
  Alcotest.(check string) "equal scales agree" (key_at 0.25) (key_at 0.25);
  (* Variant labels and compile options are part of the key. *)
  Alcotest.(check bool) "variant distinguishes" true
    (E.Engine.key tiny ~arch Regmutex.Technique.Regmutex bfs
    <> E.Engine.key ~variant:"lrr" tiny ~arch Regmutex.Technique.Regmutex bfs);
  let no_widen =
    { Regmutex.Technique.default_options with
      transform = { Regmutex.Transform.default_options with widen = false } }
  in
  Alcotest.(check bool) "options distinguish" true
    (E.Engine.key tiny ~arch Regmutex.Technique.Regmutex bfs
    <> E.Engine.key ~options:no_widen tiny ~arch Regmutex.Technique.Regmutex bfs)

let with_engine_defaults f =
  Fun.protect
    ~finally:(fun () ->
      E.Engine.set_jobs 1;
      E.Engine.set_cache_dir None;
      E.Engine.clear ())
    f

let test_parallel_determinism () =
  with_engine_defaults @@ fun () ->
  let fingerprints () =
    E.Engine.clear ();
    let sims0 = E.Engine.simulations () in
    let runs0 = E.Engine.machine_runs () in
    let rows = E.Fig7.rows tiny in
    (E.Engine.simulations () - sims0, E.Engine.machine_runs () - runs0, rows)
  in
  E.Engine.set_jobs 1;
  let serial_sims, serial_runs, serial = fingerprints () in
  E.Engine.set_jobs 4;
  let parallel_sims, parallel_runs, parallel = fingerprints () in
  Alcotest.(check bool) "rows simulate" true (serial_sims > 0);
  Alcotest.(check int) "same simulation count" serial_sims parallel_sims;
  Alcotest.(check int) "same machine-run count" serial_runs parallel_runs;
  Alcotest.(check bool) "identical rows" true (serial = parallel)

(* Cells requested differently can prepare to one machine input: on BFS,
   OWF falls back to the baseline kernel, and |Es| overrides can prepare
   to the heuristic's program or to each other's. *)
let memo_requests =
  let module T = Regmutex.Technique in
  (T.Baseline, None) :: (T.Owf, None) :: (T.Regmutex, None)
  :: List.map (fun es -> (T.Regmutex, Some es)) E.Fig10.es_values

let memo_bfs = Workloads.Registry.find "BFS"

let test_engine_memo () =
  with_engine_defaults @@ fun () ->
  let arch = tiny.E.Exp_config.arch in
  let cells =
    List.map
      (fun (t, es_override) -> E.Engine.cell ?es_override ~arch t memo_bfs)
      memo_requests
  in
  let n = List.length cells in
  let reference =
    List.map (fun c -> Regmutex.Runner.fingerprint (E.Engine.compute tiny c)) cells
  in
  (* Deltas of (cells computed, machine runs) over [f]. *)
  let counted f =
    let s0 = E.Engine.simulations () and r0 = E.Engine.machine_runs () in
    let runs = f () in
    (E.Engine.simulations () - s0, E.Engine.machine_runs () - r0, runs)
  in
  let check_pass name (sims, machine, runs) =
    Alcotest.(check int) (name ^ ": every cell computed") n sims;
    Alcotest.(check bool) (name ^ ": fewer machine runs than cells") true
      (machine > 0 && machine < sims);
    Alcotest.(check (list string)) (name ^ ": fingerprints match compute")
      reference
      (List.map Regmutex.Outcome.fingerprint runs);
    machine
  in
  E.Engine.clear ();
  let batched =
    check_pass "batch" (counted (fun () -> E.Engine.run_batch ~jobs:4 tiny cells))
  in
  E.Engine.clear ();
  let single =
    check_pass "single lookups"
      (counted (fun () ->
           List.map
             (fun (t, es_override) -> E.Engine.run ?es_override tiny ~arch t memo_bfs)
             memo_requests))
  in
  Alcotest.(check int) "both paths run the same inputs" batched single;
  E.Engine.clear ();
  let again = check_pass "after clear" (counted (fun () -> E.Engine.run_batch tiny cells)) in
  Alcotest.(check int) "clear drops the memo" batched again;
  (* A new variant label is a new cell on an already simulated input. *)
  let relabelled () =
    E.Engine.run ~variant:(Printf.sprintf "ff-%b" (E.Engine.fast_forward ()))
      tiny ~arch Regmutex.Technique.Baseline memo_bfs
  in
  let sims, machine, _ = counted (fun () -> [ relabelled () ]) in
  Alcotest.(check (pair int int)) "relabelled cell served by the memo" (1, 0)
    (sims, machine);
  Fun.protect ~finally:(fun () -> E.Engine.set_fast_forward true) @@ fun () ->
  E.Engine.set_fast_forward false;
  let sims, machine, runs = counted (fun () -> [ relabelled () ]) in
  Alcotest.(check (pair int int)) "brute force is another input" (1, 1)
    (sims, machine);
  Alcotest.(check string) "brute force agrees" (List.hd reference)
    (Regmutex.Outcome.fingerprint (List.hd runs))

(* The engine and the fuzz oracle key their memos on [Runner.input_key]:
   equal machine inputs give equal keys, any field [Gpu.run] reads moves
   the key, and a traced config has none. *)
let test_input_key () =
  let arch = Util.small_arch in
  let prepare ?fast_forward () =
    Regmutex.Runner.prepare ?fast_forward arch
      (Workloads.Registry.find "BFS").Workloads.Spec.kernel
      Regmutex.Technique.Baseline
  in
  let key (prepared, config) =
    Regmutex.Runner.input_key config prepared.Regmutex.Technique.kernel
  in
  let a = prepare () in
  Alcotest.(check string) "equal inputs, equal keys" (key a) (key (prepare ()));
  Alcotest.(check bool) "fast_forward is part of the input" false
    (key a = key (prepare ~fast_forward:false ()));
  let prepared, config = a in
  let raises label config =
    Alcotest.(check bool) label true
      (try ignore (key (prepared, config)); false
       with Invalid_argument _ -> true)
  in
  raises "traced config refused"
    { config with Gpu_sim.Gpu.telemetry = Some (Telemetry.Trace.create ()) }

(* What [f] prints on stdout. *)
let capture f =
  let file = Filename.temp_file "regmutex-stdout" ".txt" in
  flush stdout;
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let out = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  out

(* One user of the result store: its printed output, the engine counter
   a store miss bumps, the entries one print writes, and whether a cold
   print compiles a kernel with RegMutex. *)
type store_input = {
  name : string;
  output : unit -> string;
  counter : unit -> int;
  entries : int;
  compiles : bool;
}

(* The profile phases a store hit must never enter: a warm replay
   prepares no technique and transforms no kernel. *)
let compile_phases = [ "runner.prepare"; "regmutex.transform" ]

(* [f ()] with profiling on, and the calls each of [compile_phases]
   recorded meanwhile. *)
let with_phase_calls f =
  let module Profile = Telemetry.Profile in
  let calls () =
    List.map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) (Profile.report ()) with
        | Some (_, _, c) -> c
        | None -> 0)
      compile_phases
  in
  let was = Profile.enabled () in
  Profile.set_enabled true;
  let before = calls () in
  let v = Fun.protect ~finally:(fun () -> Profile.set_enabled was) f in
  (v, List.combine compile_phases (List.map2 ( - ) (calls ()) before))

let store_inputs =
  let gaussian = Workloads.Registry.find "Gaussian" in
  [ { name = "cell";
      output =
        (fun () ->
          Regmutex.Outcome.fingerprint
            (E.Engine.run tiny ~arch:tiny.E.Exp_config.arch
               Regmutex.Technique.Regmutex gaussian));
      counter = E.Engine.simulations;
      entries = 1;
      compiles = true };
    { name = "fig1";
      output = (fun () -> capture (fun () -> E.Fig1.print tiny));
      counter = E.Engine.machine_runs;
      entries = List.length Workloads.Registry.figure1;
      compiles = false };
    { name = "fig2";
      output = (fun () -> capture (fun () -> E.Fig2.print tiny));
      counter = E.Engine.machine_runs;
      entries = 2;
      compiles = true } ]

let store_round_trip input =
  Util.with_store_dir @@ fun dir ->
  let module Store = E.Result_store in
  let label what = input.name ^ ": " ^ what in
  let version_dir = Filename.concat dir (Store.version_tag ()) in
  let count0 = input.counter () in
  let computed () = input.counter () - count0 in
  (* A root reset and [clear] stand in for a new process: nothing in
     memory, every entry must come back from disk alone. *)
  let fresh_process () =
    E.Engine.set_cache_dir None;
    E.Engine.set_cache_dir (Some dir);
    E.Engine.clear ()
  in
  let cold, cold_calls = with_phase_calls input.output in
  Alcotest.(check int) (label "cold store computes") input.entries (computed ());
  if input.compiles then
    Alcotest.(check bool) (label "cold store transforms") true
      (List.assoc "regmutex.transform" cold_calls > 0);
  (* Stats are the .run files on disk: their count and total size. *)
  let files = Sys.readdir version_dir in
  let s = Store.stats () in
  Alcotest.(check int) (label "one file per entry") input.entries (Array.length files);
  Alcotest.(check int) (label "stats counts the files") input.entries s.Store.entries;
  Alcotest.(check int) (label "stats sums their size")
    (Array.fold_left
       (fun n f -> n + (Unix.stat (Filename.concat version_dir f)).Unix.st_size)
       0 files)
    s.Store.bytes;
  fresh_process ();
  let warm, warm_calls = with_phase_calls input.output in
  Alcotest.(check string) (label "warm output identical") cold warm;
  Alcotest.(check int) (label "warm store computes nothing") input.entries (computed ());
  List.iter
    (fun (phase, calls) ->
      Alcotest.(check int) (label ("warm store enters " ^ phase)) 0 calls)
    warm_calls;
  (* A truncated entry is a miss: computed again, and rewritten whole. *)
  let file = Filename.concat version_dir files.(0) in
  Unix.truncate file ((Unix.stat file).Unix.st_size / 2);
  fresh_process ();
  Alcotest.(check string) (label "recomputed output identical") cold (input.output ());
  Alcotest.(check int) (label "truncated entry recomputes") (input.entries + 1) (computed ());
  fresh_process ();
  ignore (input.output ());
  Alcotest.(check int) (label "rewritten entry loads") (input.entries + 1) (computed ());
  (* With no store root, every print computes. *)
  E.Engine.set_cache_dir None;
  E.Engine.clear ();
  Alcotest.(check string) (label "storeless output identical") cold (input.output ());
  Alcotest.(check int) (label "no root computes") ((2 * input.entries) + 1) (computed ());
  (* Another version tag's directory is never read. *)
  Sys.rename version_dir (Filename.concat dir "v0-stale");
  fresh_process ();
  Alcotest.(check int) (label "stale directory not counted") 0
    (Store.stats ()).Store.entries;
  ignore (input.output ());
  Alcotest.(check int) (label "stale directory not replayed") ((3 * input.entries) + 1)
    (computed ())

let test_cache_round_trip () =
  with_engine_defaults @@ fun () ->
  List.iter store_round_trip store_inputs;
  (* Prefetch also hits the store: no cell is simulated again. *)
  Util.with_store_dir @@ fun dir ->
  let arch = tiny.E.Exp_config.arch in
  let cell = E.Engine.cell ~arch Regmutex.Technique.Regmutex (Workloads.Registry.find "Gaussian") in
  E.Engine.prefetch tiny [ cell ];
  let sims = E.Engine.simulations () in
  E.Engine.set_cache_dir None;
  E.Engine.set_cache_dir (Some dir);
  E.Engine.clear ();
  E.Engine.prefetch tiny [ cell ];
  Alcotest.(check int) "prefetch hits the store" sims (E.Engine.simulations ())

let test_store_version_tag () =
  let module Store = E.Result_store in
  let st = Unix.stat Sys.executable_name in
  Alcotest.(check string) "named by the executable's size and mtime"
    (Printf.sprintf "v%d-%d-%.6f" Store.schema_version st.Unix.st_size
       st.Unix.st_mtime)
    (Store.version_tag ());
  Alcotest.(check string) "stable across calls" (Store.version_tag ())
    (Store.version_tag ());
  let tag = Store.simulator_tag in
  Alcotest.(check string) "size and mtime" "1234-1700000000.500000"
    (tag (Some (1234, 1700000000.5)));
  Alcotest.(check bool) "size alone differs" true
    (tag (Some (1234, 1700000000.5)) <> tag (Some (1235, 1700000000.5)));
  Alcotest.(check bool) "mtime alone differs" true
    (tag (Some (1234, 1700000000.5)) <> tag (Some (1234, 1700000000.501)));
  (* An unreadable executable: the tag carries this process's pid, so no
     live process shares it, and the time of the call, so neither does a
     later process that reuses the pid. *)
  let unreadable = tag None in
  let pid = Printf.sprintf "pid%d-" (Unix.getpid ()) in
  Alcotest.(check bool) "unreadable executable: this process's pid" true
    (String.starts_with ~prefix:pid unreadable);
  Unix.sleepf 0.001;
  Alcotest.(check bool) "unreadable executable: a fresh tag per call" true
    (tag None <> unreadable)

(* --- worker pool ------------------------------------------------------- *)

module Pool = E.Engine.Pool

let test_pool_map_order () =
  let pool = Pool.create ~workers:2 in
  Alcotest.(check int) "workers" 2 (Pool.workers pool);
  let tasks = Array.init 32 Fun.id in
  let out =
    Pool.map pool tasks (fun i ->
        (* Uneven task durations shuffle completion order; results must
           still come back in submission order. *)
        if i mod 5 = 0 then Unix.sleepf 0.002;
        i * i)
  in
  Alcotest.(check (array int)) "submission order"
    (Array.init 32 (fun i -> i * i))
    out;
  (* The pool is persistent: a second batch reuses the same workers. *)
  let out2 = Pool.map pool [| 7; 8 |] (fun i -> i + 1) in
  Alcotest.(check (array int)) "second batch" [| 8; 9 |] out2;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_pool_zero_workers () =
  (* A 0-worker pool runs every task on the participating caller. *)
  let pool = Pool.create ~workers:0 in
  let out = Pool.map pool [| 1; 2; 3 |] (fun i -> 10 * i) in
  Alcotest.(check (array int)) "serial map" [| 10; 20; 30 |] out;
  Pool.shutdown pool

let test_pool_exception () =
  let pool = Pool.create ~workers:1 in
  Alcotest.check_raises "task exception reaches the caller"
    (Failure "task 3 failed") (fun () ->
      ignore
        (Pool.map pool [| 0; 1; 2; 3; 4 |] (fun i ->
             if i = 3 then failwith "task 3 failed" else i)));
  (* The pool survives a failed batch. *)
  let out = Pool.map pool [| 1 |] (fun i -> -i) in
  Alcotest.(check (array int)) "pool survives" [| -1 |] out;
  Pool.shutdown pool

let test_pool_shutdown_drains () =
  let pool = Pool.create ~workers:2 in
  let ran = Atomic.make 0 in
  for _ = 1 to 50 do
    Pool.submit pool (fun () -> Atomic.incr ran)
  done;
  (* Shutdown must drain everything already queued before joining. *)
  Pool.shutdown pool;
  Alcotest.(check int) "all submitted jobs ran" 50 (Atomic.get ran);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Engine.Pool.submit: pool is shut down") (fun () ->
      Pool.submit pool (fun () -> ()))

let test_table1_rows () =
  let rows = E.Table1.rows tiny in
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  let bfs = List.find (fun r -> r.E.Table1.app = "BFS") rows in
  Alcotest.(check int) "BFS regs" 21 bfs.E.Table1.regs;
  Alcotest.(check int) "BFS rounded" 24 bfs.E.Table1.rounded;
  Alcotest.(check (option int)) "BFS |Bs| matches paper" (Some 18) bfs.E.Table1.heuristic_bs;
  Alcotest.(check int) "paper column" 18 bfs.E.Table1.paper_bs

let test_fig2 () =
  let r = E.Fig2.run () in
  Alcotest.(check bool) "baseline serializes" true
    (r.E.Fig2.baseline_cycles > r.E.Fig2.regmutex_cycles);
  Alcotest.(check int) "timeline buckets" 64 (Array.length r.E.Fig2.baseline_timeline);
  (* Baseline allocation never exceeds one warp's worth (31). *)
  Array.iter
    (fun v -> Alcotest.(check bool) "baseline <= 31" true (v <= 31))
    r.E.Fig2.baseline_timeline;
  (* RegMutex overlaps: some bucket must exceed a single warp's 31. *)
  Alcotest.(check bool) "regmutex overlaps" true
    (Array.exists (fun v -> v > 31) r.E.Fig2.regmutex_timeline)

let test_fig1_rows () =
  let rows = E.Fig1.rows tiny in
  Alcotest.(check int) "6 kernels" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.E.Fig1.app ^ " has profile") true
        (r.E.Fig1.dynamic_instructions > 0);
      Alcotest.(check int)
        (r.E.Fig1.app ^ " sparkline width")
        (min 72 r.E.Fig1.dynamic_instructions)
        (String.length r.E.Fig1.sparkline);
      Alcotest.(check bool)
        (r.E.Fig1.app ^ " underutilised most of the time")
        true
        (r.E.Fig1.mean_ratio < 0.8))
    rows

let test_fig7_rows () =
  let rows = E.Fig7.rows tiny in
  Alcotest.(check int) "8 rows" 8 (List.length rows);
  List.iter
    (fun (r : E.Fig7.row) ->
      Alcotest.(check bool) (r.E.Fig7.app ^ " occupancy never drops") true
        (r.E.Fig7.occ_after >= r.E.Fig7.occ_before);
      Alcotest.(check bool) (r.E.Fig7.app ^ " cycles measured") true
        (r.E.Fig7.baseline_cycles > 0 && r.E.Fig7.regmutex_cycles > 0))
    rows

let test_fig13_rows () =
  let rows = E.Fig13.rows tiny in
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  List.iter
    (fun (r : E.Fig13.row) ->
      Alcotest.(check bool) (r.E.Fig13.app ^ " ratios in [0,1]") true
        (r.E.Fig13.default_ratio >= 0. && r.E.Fig13.default_ratio <= 1.
        && r.E.Fig13.paired_ratio >= 0. && r.E.Fig13.paired_ratio <= 1.))
    rows

let test_fig10_marks_heuristic () =
  let rows = E.Fig10.rows tiny in
  List.iter
    (fun (r : E.Fig10.row) ->
      match r.E.Fig10.heuristic_es with
      | None -> Alcotest.failf "%s: no heuristic pick" r.E.Fig10.app
      | Some es ->
          Alcotest.(check bool) (r.E.Fig10.app ^ " pick is in the sweep") true
            (List.mem es E.Fig10.es_values))
    rows

(* The figures themselves: a full quick sweep's stdout (every table and
   figure, including the register-port energy columns the fingerprint
   golden file leaves out) must equal the committed copy byte for byte. A
   change meant to move the figures refreshes test/golden_sweep_quick.txt
   from `regmutex sweep --quick --no-cache`. *)
let test_quick_sweep_golden () =
  let golden =
    In_channel.with_open_bin
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "golden_sweep_quick.txt")
      In_channel.input_all
  in
  E.Engine.set_cache_dir None;
  let out = capture (fun () -> E.Suite.run E.Exp_config.quick E.Suite.all) in
  let rec first_diff i = function
    | g :: gs, o :: os -> if g = o then first_diff (i + 1) (gs, os) else (i, g, o)
    | [], o :: _ -> (i, "<end of file>", o)
    | g :: _, [] -> (i, g, "<end of output>")
    | [], [] -> (i, "", "")
  in
  if out <> golden then
    let line, expected, actual =
      first_diff 1
        (String.split_on_char '\n' golden, String.split_on_char '\n' out)
    in
    Alcotest.failf
      "quick sweep differs from golden_sweep_quick.txt at line %d:\n\
       expected: %s\n\
       actual:   %s"
      line expected actual

let test_ablation_variants () =
  Alcotest.(check int) "five variants" 5 (List.length E.Ablation.variants);
  Alcotest.(check bool) "labels distinct" true
    (let labels =
       List.map (fun (v : E.Ablation.variant) -> v.E.Ablation.label) E.Ablation.variants
     in
     List.length (List.sort_uniq compare labels) = List.length labels)

let suite =
  [ Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "experiment config" `Quick test_exp_config;
    Alcotest.test_case "engine caching" `Slow test_engine_caching;
    Alcotest.test_case "engine key precision" `Quick test_engine_key_precision;
    Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
    Alcotest.test_case "cache round trip" `Slow test_cache_round_trip;
    Alcotest.test_case "Table 1 rows" `Quick test_table1_rows;
    Alcotest.test_case "Figure 2 story" `Slow test_fig2;
    Alcotest.test_case "Figure 1 rows" `Slow test_fig1_rows;
    Alcotest.test_case "Figure 7 rows" `Slow test_fig7_rows;
    Alcotest.test_case "Figure 13 rows" `Slow test_fig13_rows;
    Alcotest.test_case "Figure 10 heuristic marks" `Slow test_fig10_marks_heuristic;
    Alcotest.test_case "ablation variants" `Quick test_ablation_variants;
    Alcotest.test_case "store version tag" `Quick test_store_version_tag;
    Alcotest.test_case "pool map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool zero workers" `Quick test_pool_zero_workers;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool shutdown drains" `Quick test_pool_shutdown_drains;
    Alcotest.test_case "engine machine-input memo" `Slow test_engine_memo;
    Alcotest.test_case "machine-input key" `Quick test_input_key;
    Alcotest.test_case "quick sweep matches the golden file" `Slow
      test_quick_sweep_golden ]
