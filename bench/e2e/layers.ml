(* Per-layer measurements for the traced run.

   Two sources, both from outside the program:
   - the probe pass calls each layer's public functions once per input
     program of the workload (the Table I kernels for the sweeps and
     [simt], the generated kernels for [fuzz]) inside a span per call,
     and runs [Gpu.run] on each input kernel three ways (warp-uniform,
     SIMT, brute-force stepping);
   - the traced ops, whose spans carry the [Telemetry.Profile] phases
     the program already times (Runner prepare/simulate, Engine merge,
     the fuzz oracle stages). *)

module Program = Gpu_isa.Program
module Kernel = Gpu_sim.Kernel
module Gpu = Gpu_sim.Gpu
module Stats = Gpu_sim.Stats
module Liveness = Gpu_analysis.Liveness
module Transform = Regmutex.Transform

type input = {
  arch : Gpu_uarch.Arch_config.t;
  kernel : Kernel.t;
  uniform : bool;  (** no lane ever diverges, so both execution models agree *)
}

let span = Span.with_span
let widen = Transform.default_options.Transform.widen

(* The heuristic's |Bs|/|Es| split, or when it finds none the fuzz
   oracle's forced split just below peak pressure, so the transform
   probe runs on small generated kernels too. *)
let split arch kernel liveness =
  let prog = kernel.Kernel.program in
  let min_bs = Liveness.live_at_barriers prog liveness in
  match
    span "regmutex.es_choose" (fun () ->
        Regmutex.Es_heuristic.choose arch ~demand:(Kernel.demand kernel) ~min_bs ())
  with
  | Some c -> Some (c.Regmutex.Es_heuristic.bs, c.Regmutex.Es_heuristic.es)
  | None ->
      let n = prog.Program.n_regs in
      let bs = max 1 (min (n - 1) (Liveness.max_pressure liveness - 1)) in
      if n >= 3 then Some (bs, n - bs) else None

let probe_program inp =
  let kernel = inp.kernel in
  let prog = kernel.Kernel.program in
  let name = prog.Program.name in
  ignore
    (span "gpu_isa.print_parse" (fun () ->
         Gpu_isa.Parser.parse ~name (Format.asprintf "%a" Program.pp prog)));
  if Gpu_isa.Codec.encodable prog then
    ignore
      (span "gpu_isa.codec" (fun () ->
           Gpu_isa.Codec.decode_program ~name (Gpu_isa.Codec.encode_program prog)));
  let cfg = span "gpu_analysis.cfg" (fun () -> Gpu_analysis.Cfg.of_program prog) in
  ignore (span "gpu_analysis.dominance" (fun () -> Gpu_analysis.Dominance.compute cfg));
  let liveness = span "gpu_analysis.liveness" (fun () -> Liveness.analyze ~widen prog) in
  ignore (span "gpu_analysis.reconv" (fun () -> Gpu_analysis.Reconv.table prog));
  (match split inp.arch kernel liveness with
  | None -> ()
  | Some (bs, es) -> (
      match span "regmutex.transform" (fun () -> Transform.apply ~bs ~es prog) with
      | plan ->
          ignore
            (span "regmutex.checker" (fun () ->
                 Regmutex.Checker.check ~bs ~es plan.Transform.transformed))
      | exception (Transform.Unsound _ | Invalid_argument _) -> ()));
  ignore
    (span "regmutex.regdem_choose" (fun () -> Regmutex.Regdem.choose ~widen inp.arch kernel));
  ignore
    (span "regmutex.prepare" (fun () ->
         Regmutex.Technique.prepare inp.arch Regmutex.Technique.Regmutex kernel))

type sim = {
  mutable uniform_s : float;  (** warp-uniform, fast-forward: every input *)
  mutable uniform_only_s : float;  (** the same, uniform inputs only *)
  mutable simt_s : float;  (** SIMT, fast-forward: uniform inputs only *)
  mutable brute_s : float;  (** warp-uniform, brute-force: every input *)
  mutable instructions : int;
  mutable cycles : int;
  mutable lanes_active : int;
  mutable lanes_predicated : int;
  mutable divergent : int;
  stalls : int array;
  mutable mismatches : string list;
}

let new_sim () =
  { uniform_s = 0.; uniform_only_s = 0.; simt_s = 0.; brute_s = 0.;
    instructions = 0; cycles = 0; lanes_active = 0; lanes_predicated = 0;
    divergent = 0;
    stalls = Array.make (List.length Stats.all_reasons) 0;
    mismatches = [] }

(* Everything stepping mode and execution model must leave unchanged. *)
let stats_key (s : Stats.t) =
  ( s.Stats.cycles, s.Stats.instructions, s.Stats.resident_warp_cycles,
    s.Stats.ctas_retired, s.Stats.rf_reads, s.Stats.rf_writes,
    List.map (Stats.stall_count s) Stats.all_reasons )

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = span name f in
  (Unix.gettimeofday () -. t0, r)

let probe_sim sim inp =
  let kernel = inp.kernel in
  let base =
    Gpu.default_config inp.arch
      (Gpu_sim.Policy.Static { regs_per_thread = Kernel.regs_per_thread kernel })
  in
  let tu, u = timed "gpu_sim.run_uniform" (fun () -> Gpu.run base kernel) in
  let tb, b =
    timed "gpu_sim.run_brute" (fun () ->
        Gpu.run { base with Gpu.fast_forward = false } kernel)
  in
  let ts, s =
    timed "gpu_sim.run_simt" (fun () -> Gpu.run { base with Gpu.simt = true } kernel)
  in
  sim.uniform_s <- sim.uniform_s +. tu;
  sim.brute_s <- sim.brute_s +. tb;
  sim.instructions <- sim.instructions + u.Stats.instructions;
  sim.cycles <- sim.cycles + u.Stats.cycles;
  List.iteri
    (fun i r -> sim.stalls.(i) <- sim.stalls.(i) + Stats.stall_count u r)
    Stats.all_reasons;
  sim.lanes_active <- sim.lanes_active + s.Stats.active_lane_cycles;
  sim.lanes_predicated <- sim.lanes_predicated + s.Stats.predicated_lane_cycles;
  sim.divergent <- sim.divergent + s.Stats.divergent_branches;
  let name = kernel.Kernel.name in
  if stats_key u <> stats_key b then
    sim.mismatches <- (name ^ ": fast-forward and brute-force differ") :: sim.mismatches;
  if inp.uniform then begin
    sim.uniform_only_s <- sim.uniform_only_s +. tu;
    sim.simt_s <- sim.simt_s +. ts;
    if stats_key u <> stats_key s then
      sim.mismatches <- (name ^ ": uniform and SIMT models differ") :: sim.mismatches
  end

(* Run the probe pass over [inputs]; one "probe" span per input holds
   that input's layer spans. Returns the simulator totals. *)
let probe inputs =
  let sim = new_sim () in
  List.iter
    (fun inp ->
      span "probe" (fun () ->
          probe_program inp;
          probe_sim sim inp))
    inputs;
  sim

(* --- per-layer metrics -------------------------------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio a b = if b > 0. then a /. b else 0.

let phase_s name (s : Span.t) =
  List.fold_left
    (fun acc (n, secs, _) -> if n = name then acc +. secs else acc)
    0. s.Span.phases

let phase_calls name (s : Span.t) =
  List.fold_left
    (fun acc (n, _, calls) -> if n = name then acc + calls else acc)
    0 s.Span.phases

(* [metrics ~spans ~sim ~extra] computes every [Catalog.per_layer]
   metric: [spans] are all spans of the run (the traced ops' spans are
   those with [op >= 0]), [sim] the probe totals, [extra] the values the
   workload runner measures itself (overhead, store, simulations). *)
let metrics ~spans ~sim ~extra =
  let probe_calls = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt probe_calls s.name) in
      Hashtbl.replace probe_calls s.name (n + 1, t +. Span.duration s))
    spans;
  let per_call name =
    match Hashtbl.find_opt probe_calls name with
    | Some (n, t) when n > 0 -> t /. float_of_int n *. 1e6
    | _ -> 0.
  in
  let ops = List.filter (fun (s : Span.t) -> s.op >= 0 && s.name = "op") spans in
  let figures =
    List.filter
      (fun (s : Span.t) -> s.op >= 0 && String.starts_with ~prefix:"figure." s.name)
      spans
  in
  let op_s = sum Span.duration ops in
  let pct x = 100. *. ratio x op_s in
  let in_ops name = sum (phase_s name) ops in
  let figure_self =
    sum
      (fun s ->
        Span.duration s -. phase_s "runner.prepare" s -. phase_s "runner.simulate" s
        -. phase_s "engine.merge" s)
      figures
  in
  let n_ops = float_of_int (List.length ops) in
  List.map (fun l -> (l ^ "_us", per_call l)) Catalog.probe_layers
  @ [ ("gpu_sim.ns_per_instr", ratio sim.uniform_s (float_of_int sim.instructions) *. 1e9);
      ("gpu_sim.ns_per_cycle", ratio sim.uniform_s (float_of_int sim.cycles) *. 1e9);
      ("gpu_sim.simt_overhead", ratio sim.simt_s sim.uniform_only_s);
      ("gpu_sim.ff_speedup", ratio sim.brute_s sim.uniform_s);
      ("gpu_sim.instructions", float_of_int sim.instructions);
      ("gpu_sim.cycles", float_of_int sim.cycles);
      ("gpu_sim.lane_slots_active", float_of_int sim.lanes_active);
      ("gpu_sim.lane_slots_predicated", float_of_int sim.lanes_predicated);
      ("gpu_sim.divergent_branches", float_of_int sim.divergent) ]
  @ List.mapi
      (fun i r -> ("gpu_sim.stall." ^ r, float_of_int sim.stalls.(i)))
      Catalog.stall_reasons
  @ [ ("regmutex.runner_prepare_pct", pct (in_ops "runner.prepare"));
      ("gpu_sim.runner_simulate_pct", pct (in_ops "runner.simulate"));
      ( "regmutex.executes_per_op",
        ratio
          (float_of_int
             (List.fold_left (fun acc s -> acc + phase_calls "runner.simulate" s) 0 ops))
          n_ops );
      ("experiments.merge_pct", pct (in_ops "engine.merge"));
      ("experiments.figure_self_pct", pct figure_self) ]
  @ List.map
      (fun e ->
        ( "experiments.figure." ^ e ^ "_pct",
          pct
            (sum Span.duration
               (List.filter (fun (s : Span.t) -> s.name = "figure." ^ e) figures)) ))
      Catalog.suite_entries
  @ extra
  @ List.map
      (fun p -> ("fuzz.oracle." ^ p ^ "_pct", pct (in_ops ("oracle." ^ p))))
      Catalog.oracle_phases
