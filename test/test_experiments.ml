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
  Alcotest.(check int) "same result" r1.Regmutex.Runner.cycles r2.Regmutex.Runner.cycles;
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
      (List.map Regmutex.Runner.fingerprint runs);
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
    (Regmutex.Runner.fingerprint (List.hd runs))

(* The engine and the fuzz oracle key their memos on [Runner.input_key]:
   equal machine inputs give equal keys, any field [Gpu.run] reads moves
   the key, and a config with a sink has none. *)
let test_input_key () =
  let arch = Util.small_arch in
  let prepare ?fast_forward () =
    Regmutex.Runner.prepare ?fast_forward arch Regmutex.Technique.Baseline
      (Workloads.Registry.find "BFS").Workloads.Spec.kernel
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
  raises "telemetry sink refused"
    { config with Gpu_sim.Gpu.telemetry = Some (Telemetry.Sink.create ()) }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_cache_round_trip () =
  with_engine_defaults @@ fun () ->
  let module Store = E.Result_store in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "regmutex-store-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  E.Engine.set_cache_dir (Some dir);
  let gaussian = Workloads.Registry.find "Gaussian" in
  let arch = tiny.E.Exp_config.arch in
  let run () = E.Engine.run tiny ~arch Regmutex.Technique.Regmutex gaussian in
  let key = E.Engine.key tiny ~arch Regmutex.Technique.Regmutex gaussian in
  let version_dir = Filename.concat dir (Store.version_tag ()) in
  let sims () = E.Engine.simulations () in
  E.Engine.clear ();
  let sims0 = sims () in
  let r1 = run () in
  let fp1 = Regmutex.Runner.fingerprint r1 in
  Alcotest.(check int) "cold store simulates" (sims0 + 1) (sims ());
  (* Stats are the .run files on disk: one entry, its size. *)
  (match Sys.readdir version_dir with
  | [| file |] ->
      let s = Store.stats () in
      Alcotest.(check int) "stats counts the file" 1 s.Store.entries;
      Alcotest.(check int) "stats sums its size"
        (Unix.stat (Filename.concat version_dir file)).Unix.st_size
        s.Store.bytes
  | files -> Alcotest.failf "expected one store file, found %d" (Array.length files));
  (* A root reset stands in for a new process: nothing in memory, the
     entry must come back from disk alone. *)
  E.Engine.set_cache_dir None;
  E.Engine.set_cache_dir (Some dir);
  E.Engine.clear ();
  let r2 = run () in
  Alcotest.(check int) "warm store does not simulate" (sims0 + 1) (sims ());
  Alcotest.(check string) "identical result" fp1
    (Regmutex.Runner.fingerprint r2);
  (* Prefetch also hits the store: still no simulation. *)
  E.Engine.clear ();
  E.Engine.prefetch tiny [ E.Engine.cell ~arch Regmutex.Technique.Regmutex gaussian ];
  Alcotest.(check int) "prefetch hits the store" (sims0 + 1) (sims ());
  (* A truncated file is a miss, and the cell is simulated again. *)
  let file = Filename.concat version_dir (Sys.readdir version_dir).(0) in
  Unix.truncate file ((Unix.stat file).Unix.st_size / 2);
  Alcotest.(check bool) "truncated entry does not load" true
    (Store.load key = None);
  E.Engine.clear ();
  Alcotest.(check string) "re-simulated result" fp1
    (Regmutex.Runner.fingerprint (run ()));
  Alcotest.(check int) "truncated entry re-simulates" (sims0 + 2) (sims ());
  Alcotest.(check bool) "rewritten entry loads" true (Store.load key <> None);
  (* Another version tag's directory is never read. *)
  Sys.rename version_dir (Filename.concat dir "v0-stale");
  Alcotest.(check int) "stale directory not counted" 0
    (Store.stats ()).Store.entries;
  E.Engine.clear ();
  ignore (run ());
  Alcotest.(check int) "stale directory not replayed" (sims0 + 3) (sims ())

let test_store_version_tag () =
  let tag describe exe = E.Result_store.simulator_tag ~describe ~exe in
  let exe = Some (1234, 1700000000.5) in
  Alcotest.(check string) "clean build: describe alone" "abc1234"
    (tag "abc1234" exe);
  Alcotest.(check string) "dirty build: executable appended"
    "abc1234-dirty-1234-1700000000.500" (tag "abc1234-dirty" exe);
  Alcotest.(check string) "unversioned build: executable appended"
    "unversioned-1234-1700000000.500" (tag "unversioned" exe);
  Alcotest.(check bool) "two dirty builds differ" true
    (tag "abc1234-dirty" exe <> tag "abc1234-dirty" (Some (1234, 1700000001.)));
  Alcotest.(check string) "unreadable executable" "abc1234-dirty"
    (tag "abc1234-dirty" None)

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
    Alcotest.test_case "machine-input key" `Quick test_input_key ]
