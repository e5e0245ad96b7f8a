module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset
module Program = Gpu_isa.Program
module Parser = Gpu_isa.Parser
module Codec = Gpu_isa.Codec
module Liveness = Gpu_analysis.Liveness
module Facts = Gpu_analysis.Facts
module Arch_config = Gpu_uarch.Arch_config
module Gpu = Gpu_sim.Gpu
module Sm = Gpu_sim.Sm
module Stats = Gpu_sim.Stats
module Policy = Gpu_sim.Policy
module Kernel = Gpu_sim.Kernel
module Technique = Regmutex.Technique
module Transform = Regmutex.Transform
module Regdem = Regmutex.Regdem
module Checker = Regmutex.Checker
module Runner = Regmutex.Runner

type fault = Drop_acquire | Early_release | Drop_mov | Oob_spill | Mask_corrupt

let fault_name = function
  | Drop_acquire -> "drop-acquire"
  | Early_release -> "early-release"
  | Drop_mov -> "drop-mov"
  | Oob_spill -> "oob-spill"
  | Mask_corrupt -> "mask-corrupt"

let fault_of_string = function
  | "drop-acquire" -> Ok Drop_acquire
  | "early-release" -> Ok Early_release
  | "drop-mov" -> Ok Drop_mov
  | "oob-spill" -> Ok Oob_spill
  | "mask-corrupt" -> Ok Mask_corrupt
  | s ->
      Error
        (Printf.sprintf
           "unknown fault %S (expected drop-acquire, early-release, drop-mov, \
            oob-spill or mask-corrupt)"
           s)

type kind =
  | Divergence
  | Stats_mismatch
  | Deadlock
  | Timeout
  | Verification
  | Unsound_transform
  | Conservation
  | Roundtrip
  | Shared_oob
  | Crash

let kind_name = function
  | Divergence -> "divergence"
  | Stats_mismatch -> "stats-mismatch"
  | Deadlock -> "deadlock"
  | Timeout -> "timeout"
  | Verification -> "verification"
  | Unsound_transform -> "unsound-transform"
  | Conservation -> "conservation"
  | Roundtrip -> "roundtrip"
  | Shared_oob -> "shared-oob"
  | Crash -> "crash"

type failure = { kind : kind; detail : string }

type report = { failures : failure list; injected : bool }

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s" (kind_name f.kind) f.detail

(* One SM keeps runs fast; dram_interval 1.0 keeps memory latencies small
   relative to the watchdog. *)
let arch0 = { Arch_config.gtx480 with n_sms = 1; dram_interval = 1.0 }
let max_cycles = 1_000_000

(* Oracle-stage profiling (surfaced by `regmutex fuzz --profile`).
   Registered at module init, before the fuzz sweep spawns worker domains;
   the accumulators are atomic, so concurrent cases time safely. *)
let baseline_phase = Telemetry.Profile.phase "oracle.baseline"
let roundtrip_phase = Telemetry.Profile.phase "oracle.roundtrip"
let techniques_phase = Telemetry.Profile.phase "oracle.techniques"
let forced_split_phase = Telemetry.Profile.phase "oracle.forced-split"
let forced_regdem_phase = Telemetry.Profile.phase "oracle.forced-regdem"
let simt_phase = Telemetry.Profile.phase "oracle.simt"

(* --- the per-case simulation memo ----------------------------------------- *)

(* Simulations the oracle asked for, and machine runs it actually made,
   summed over every case and domain ([regmutex fuzz] prints both). *)
let requested = Atomic.make 0
let runs = Atomic.make 0

let simulations () = Atomic.get requested
let machine_runs () = Atomic.get runs

(* [Gpu.run] through [memo], one case's statistics by machine input
   ([Runner.input_key], as in [Experiments.Engine.prepare]): equal keys
   mean an equal input, so the memoised statistics are the ones a re-run
   would produce. Phases that reach one input twice (a technique that
   falls back to the baseline, the forced split's paired run) simulate it
   once. A run with an [observe] callback always simulates: the caller
   watches that one cycle by cycle. A raising run is not cached: the next
   request re-runs it and raises again. *)
let simulate memo ?observe config kernel =
  Atomic.incr requested;
  match observe with
  | Some _ ->
      Atomic.incr runs;
      Gpu.run ?observe config kernel
  | None -> (
      let key = Runner.input_key config kernel in
      match Hashtbl.find_opt memo key with
      | Some stats -> stats
      | None ->
          Atomic.incr runs;
          let stats = Gpu.run config kernel in
          Hashtbl.add memo key stats;
          stats)

(* --- the checker ---------------------------------------------------------- *)

(* One labelled machine input. [machine] prepares it, so a compile that
   rejects its own output is a failure of this input. *)
type input = { label : string; machine : unit -> Gpu.run_config * Kernel.t }

(* What an input's run must reproduce of its reference run: the per-warp
   store traces, under SIMT the per-lane ones, and the out-of-bounds
   count of the user shared-memory window. The window rule: a technique
   must hit the window out of bounds exactly as often as the baseline
   does; a delta means a transform leaked accesses outside its
   allocation (RegDem's spill traffic must stay inside its reserved
   window). [None] skips that comparison. *)
type reference = {
  stores : Checker.store_trace option;
  lanes : Checker.lane_store_trace option;
  oob : int option;
}

let no_reference = { stores = None; lanes = None; oob = None }

(* A second run an input's statistics must equal counter for counter: the
   input stepped brute-force ([Sampled]: with the SRP conservation
   invariant probed after every cycle, which covers every acquire and
   release), or the warp-uniform run of a lane-resolved SIMT input. *)
type twin = Brute_force | Sampled | Uniform of Stats.t

(* Everything two runs of one kernel promise to keep bit-identical: every
   result counter of [Stats.table], then the store traces. *)
let diff_stats ?(sides = ("fast-forward", "brute-force")) (a : Stats.t)
    (b : Stats.t) =
  let sa, sb = sides in
  match Stats.first_difference (Stats.counters a) (Stats.counters b) with
  | Some (name, x, y) -> Some (Printf.sprintf "%s = %d %s vs %d %s" name x sa y sb)
  | None ->
      Option.map
        (fun d -> "store traces differ: " ^ d)
        (Checker.diff_store_traces ~expected:(Stats.store_traces b)
           ~actual:(Stats.store_traces a))

let pp_violations =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
    Checker.pp_violation

(* [check memo ?twin ~reference input] simulates [input] once through the
   memo and returns its failures, with its statistics when the run
   finished within the watchdog. A deadlock, a tripped verification, a
   transform that rejects its own output and a timeout are failures of
   the input; so is every difference from [reference] and from [twin]. *)
let check memo ?twin ~reference { label; machine } =
  let failures = ref [] in
  let fail kind fmt =
    Printf.ksprintf
      (fun detail -> failures := { kind; detail = label ^ detail } :: !failures)
      fmt
  in
  let guard what run =
    match run () with
    | result -> Some result
    | exception Gpu.Deadlock d ->
        fail Deadlock "%s: %s" what (Format.asprintf "%a" Gpu.pp_deadlock d);
        None
    | exception Sm.Verification_failure m ->
        fail Verification "%s: %s" what m;
        None
    | exception Transform.Unsound violations ->
        fail Unsound_transform "%s: %s" what
          (Format.asprintf "%a" pp_violations violations);
        None
  in
  let stats =
    match
      guard "" (fun () ->
          let config, kernel = machine () in
          (config, kernel, simulate memo config kernel))
    with
    | None -> None
    | Some (_, _, stats) when stats.Stats.timed_out ->
        fail Timeout ": exceeded %d cycles" max_cycles;
        None
    | Some (config, kernel, stats) ->
        Option.iter
          (fun expected ->
            Option.iter (fail Divergence " (lanes): %s")
              (Checker.diff_lane_store_traces ~expected
                 ~actual:(Stats.lane_store_traces stats)))
          reference.lanes;
        Option.iter
          (fun expected ->
            Option.iter (fail Divergence ": %s")
              (Checker.diff_store_traces ~expected ~actual:(Stats.store_traces stats)))
          reference.stores;
        Option.iter
          (fun base ->
            if stats.Stats.shared_oob <> base then
              fail Shared_oob ": %d out-of-bounds shared accesses vs %d in baseline"
                stats.Stats.shared_oob base)
          reference.oob;
        let conservation = ref None in
        let brute_force ?observe () =
          Option.iter
            (fun bf -> Option.iter (fail Stats_mismatch ": %s") (diff_stats stats bf))
            (guard " brute-force" (fun () ->
                 simulate memo ?observe { config with Gpu.fast_forward = false } kernel))
        in
        (match twin with
        | None -> ()
        | Some (Uniform uniform) ->
            Option.iter (fail Stats_mismatch ": %s")
              (diff_stats ~sides:("simt", "uniform") stats uniform)
        | Some Brute_force -> brute_force ()
        | Some Sampled ->
            let observe ~cycle sms =
              if !conservation = None then
                for i = 0 to Array.length sms - 1 do
                  match Sm.srp_invariant sms.(i) with
                  | Some msg when !conservation = None ->
                      conservation := Some (cycle, msg)
                  | Some _ | None -> ()
                done
            in
            brute_force ~observe ());
        Option.iter
          (fun (cycle, msg) -> fail Conservation " at cycle %d: %s" cycle msg)
          !conservation;
        Some stats
  in
  (List.rev !failures, stats)

let config ?(arch = arch0) policy =
  { (Gpu.default_config arch policy) with Gpu.record_stores = true; max_cycles }

let prepared label prepare tech =
  { label;
    machine =
      (fun () ->
        let prepared, config = prepare tech in
        (config, prepared.Technique.kernel)) }

(* --- round-trips ------------------------------------------------------ *)

let roundtrip_failures prog =
  let failures = ref [] in
  let fail detail = failures := { kind = Roundtrip; detail } :: !failures in
  (let printed = Program.to_string prog in
   match Parser.parse ~name:prog.Program.name printed with
   | reparsed ->
       if not (Program.equal reparsed prog) then
         fail "parse (print p) <> p: printer/parser asymmetry"
   | exception Parser.Parse_error e ->
       fail (Format.asprintf "printed program does not parse: %a" Parser.pp_error e));
  (if Codec.encodable prog then
     match Codec.decode_program ~name:prog.Program.name (Codec.encode_program prog) with
     | decoded ->
         if not (Program.equal decoded prog) then
           fail "decode (encode p) <> p: codec asymmetry"
     | exception Codec.Unencodable m -> fail (Printf.sprintf "codec round-trip failed: %s" m)
     | exception Program.Invalid m ->
         fail (Printf.sprintf "decoded program re-validates differently: %s" m));
  List.rev !failures

(* --- fault injection -------------------------------------------------- *)

let find_first pred p =
  let rec go i =
    if i >= Program.length p then None
    else if pred (Program.get p i) then Some i
    else go (i + 1)
  in
  go 0

let replace p idx f =
  Program.map_instrs (fun i old -> if i = idx then f old else old) p

(* [apply_fault ?fault ?bs ?spill_words facts] is the program of [facts]
   with [fault] injected, and whether it applied (not when the program
   holds no target for it). [bs] is a forced split's |Bs| (drop-mov's
   boundary), [spill_words] a forced demotion's window size (oob-spill's
   offset); each defaults to 0, which no target matches. *)
let apply_fault ?fault ?(bs = 0) ?(spill_words = 0) facts =
  let p = Facts.program facts in
  let mutated =
    match fault with
    | None -> None
    | Some Drop_acquire ->
        Option.map
          (fun idx -> replace p idx (fun _ -> Instr.Mov (0, Instr.Reg 0)))
          (find_first (fun i -> i = Instr.Acquire) p)
    | Some Early_release ->
        Option.map
          (fun idx -> Program.insert_before p [ (idx + 1, [ Instr.Release ]) ])
          (find_first (fun i -> i = Instr.Acquire) p)
    | Some Drop_mov -> (
        (* Only a compaction MOV whose base destination is read later can
           change behaviour when dropped: with a dead destination the
           mutation is benign by construction. Of the live ones, the last
           leaves its value the fewest instructions in which to be masked
           (the generated kernels fold values through min/max chains) before
           it reaches a store. *)
        let live_out = (Facts.liveness facts).Liveness.live_out in
        let rec last_live idx =
          if idx < 0 then None
          else
            match Program.get p idx with
            | Instr.Mov (d, Instr.Reg s)
              when s >= bs && d < bs && Regset.mem d live_out.(idx) ->
                Some (idx, d)
            | _ -> last_live (idx - 1)
        in
        Option.map
          (fun (idx, d) -> replace p idx (fun _ -> Instr.Mov (d, Instr.Reg d)))
          (last_live (Program.length p - 1)))
    | Some Oob_spill ->
        (* The first spill store lands one slot past the window: every
           executing warp bumps [shared_oob], which the window rule
           reports. *)
        Option.map
          (fun idx ->
            replace p idx (function
              | Instr.Store (Instr.Spill, addr, v, _) ->
                  Instr.Store (Instr.Spill, addr, v, spill_words)
              | i -> i))
          (find_first
             (function Instr.Store (Instr.Spill, _, _, _) -> true | _ -> false)
             p)
    | Some Mask_corrupt ->
        (* Lane 1 branches to an appended exit before the first instruction,
           so it stores nothing. The warp-level trace records the lowest
           active lane's stores, so on the uniform families (lane 0 leads
           every instruction) only the lane-resolved traces can see it. *)
        let r = p.Program.n_regs and n = Program.length p in
        if r > Regset.max_reg then None
        else
          Some
            (Program.insert_before p
               [ ( 0,
                   [ Instr.Cmp (Instr.Eq, r, Instr.Special Instr.Lane_id, Instr.Imm 1);
                     Instr.Jump_if (Instr.Reg r, n) ] );
                 (n, [ Instr.Exit ]) ])
  in
  match mutated with Some m -> (m, true) | None -> (p, false)

(* --- forced Bs/Es split ------------------------------------------------ *)

let forced_split_failures memo (case : Gen.t) facts ~reference ?fault () =
  Telemetry.Profile.time forced_split_phase @@ fun () ->
  let prog = case.Gen.program in
  let peak = Liveness.max_pressure (Facts.liveness facts) in
  let bs = max 1 (min (prog.Program.n_regs - 1) (peak - 1)) in
  let es = prog.Program.n_regs - bs in
  if case.Gen.family <> Gen.Pressure || es < 1 || prog.Program.n_regs < 3 then
    ([], false)
  else
    match Transform.compile ~bs ~es facts with
    | exception Transform.Unsound violations ->
        ( [ { kind = Unsound_transform;
              detail =
                Format.asprintf "transform bs=%d es=%d rejected its own output: %a"
                  bs es pp_violations violations } ],
          false )
    | _, transformed_facts ->
        let program, injected = apply_fault ?fault ~bs transformed_facts in
        let kern = Gen.kernel ~program case in
        let policy = Policy.Srp { bs; es; verify = true } in
        let wpc = case.Gen.threads / 32 in
        let regs_cta = Policy.regs_per_cta arch0 policy ~warps_per_cta:wpc in
        let sections = 1 + (case.Gen.salt mod 3) in
        (* Capacity pinned to exactly two resident CTAs, with exactly
           [sections] SRP sections left over ([Policy.regs_per_cta] for Srp
           is unrounded, so the arithmetic is exact) — guaranteeing real
           acquire contention while [sections >= 1] keeps barrier-free
           kernels deadlock-free. *)
        let arch =
          { arch0 with
            Arch_config.max_ctas = 2;
            regfile_regs = (2 * regs_cta) + (sections * es * 32) }
        in
        let srp, _ =
          check memo ~twin:Sampled ~reference
            { label = Printf.sprintf "srp bs=%d es=%d sections=%d" bs es sections;
              machine = (fun () -> (config ~arch policy, kern)) }
        in
        (* Paired-warps specialization on the same transformed program:
           ample register file, contention only within a pair. *)
        let paired, _ =
          check memo ~reference
            { label = Printf.sprintf "paired bs=%d es=%d" bs es;
              machine =
                (fun () -> (config (Policy.Srp_paired { bs; es; verify = true }), kern)) }
        in
        (srp @ paired, injected)

(* --- forced RegDem demotion -------------------------------------------- *)

(* The RegDem heuristic only demotes when occupancy strictly improves,
   which small fuzz kernels rarely trigger — so the demotion machinery is
   additionally exercised with a salt-derived forced [keep], independent
   of profitability. *)
let forced_regdem_failures memo (case : Gen.t) facts ~reference ?fault () =
  Telemetry.Profile.time forced_regdem_phase @@ fun () ->
  let n_regs = case.Gen.program.Program.n_regs in
  if n_regs < 3 then ([], false)
  else
    let keep = 1 + (case.Gen.salt mod (n_regs - 1)) in
    let wpc = max 1 (case.Gen.threads / 32) in
    match Regdem.transform ~keep ~wpc facts with
    | exception Regdem.Unsound m ->
        ( [ { kind = Unsound_transform;
              detail =
                Printf.sprintf "regdem keep=%d wpc=%d rejected its own output: %s"
                  keep wpc m } ],
          false )
    | plan ->
        let spill_words = plan.Regdem.spill_words in
        let program, injected =
          apply_fault ?fault ~spill_words (Facts.derive facts plan.Regdem.transformed)
        in
        let kern =
          Kernel.with_shmem_bytes
            (Gen.kernel ~program case)
            (Regdem.shmem_bytes_with_window (Gen.kernel case) ~spill_words)
        in
        let policy =
          Policy.Regdem { regs_per_thread = plan.Regdem.allocated; spill_words }
        in
        let failures, _ =
          check memo ~twin:Brute_force ~reference
            { label = Printf.sprintf "regdem keep=%d wpc=%d" keep wpc;
              machine = (fun () -> (config policy, kern)) }
        in
        (failures, injected)

(* --- SIMT execution ----------------------------------------------------- *)

let simt_options = { Technique.default_options with Technique.simt = true }

let simt_prepare ?lane_resolved ?facts kernel =
  Runner.prepare ~options:simt_options ?lane_resolved ~record_stores:true
    ~max_cycles ?facts arch0 kernel

(* Value-safe techniques under true divergence. RegDem is excluded by
   design: its spill window holds one value per warp-level register, so a
   demoted register whose lanes diverge is clobbered on spill (last lane
   wins) and every lane reads that value back on fill — RegDem is only
   sound for warp-uniform register values. *)
let simt_divergent_techniques =
  Technique.[ Regmutex; Regmutex_paired; Owf; Rfv ]

(* The SIMT baseline's traces as the reference of the runs it checks. *)
let simt_reference (base : Stats.t) ~stores =
  { stores = (if stores then Some (Stats.store_traces base) else None);
    lanes = Some (Stats.lane_store_traces base);
    oob = None }

let simt_input prepare tech = prepared (Technique.name tech ^ " --simt") prepare tech

(* Warp-uniform equivalence: the Pressure and Barrier families never read
   [%laneid], so every lane of a warp follows one path and the SIMT model
   must reproduce the warp-uniform run [base] bit-for-bit — counters,
   stall histogram and store traces. The SIMT run starts lane-resolved: a
   collapsed warp makes the same warp-level calls as the uniform run, and
   the check would compare them with themselves. *)
let simt_failures memo (case : Gen.t) facts ~base =
  Telemetry.Profile.time simt_phase @@ fun () ->
  match case.Gen.family with
  | Gen.Pressure | Gen.Barrier ->
      fst
        (check memo ~twin:(Uniform base) ~reference:no_reference
           (simt_input
              (simt_prepare ~lane_resolved:true ~facts (Gen.kernel case))
              Technique.Baseline))
  | Gen.Divergent -> (
      let prepare = simt_prepare ~facts (Gen.kernel case) in
      match check memo ~reference:no_reference (simt_input prepare Technique.Baseline) with
      | [], Some simt_base ->
          let reference = simt_reference simt_base ~stores:true in
          let techniques =
            List.concat_map
              (fun tech -> fst (check memo ~reference (simt_input prepare tech)))
              simt_divergent_techniques
          in
          let heuristic =
            List.concat_map
              (fun tech ->
                fst
                  (check memo ~twin:Brute_force ~reference:no_reference
                     (prepared (Technique.name tech ^ " --simt (heuristic)") prepare
                        tech)))
              Technique.[ Baseline; Regmutex ]
          in
          techniques @ heuristic
      | failures, _ -> failures)

(* Mask-corruption self-test: the mutated program under SIMT against a
   clean SIMT run; on the uniform families the warp-level traces must not
   move (see [apply_fault]). *)
let mask_corrupt_failures memo (case : Gen.t) facts =
  Telemetry.Profile.time simt_phase @@ fun () ->
  match apply_fault ~fault:Mask_corrupt facts with
  | _, false -> ([], false)
  | program, true -> (
      match
        check memo ~reference:no_reference
          (simt_input (simt_prepare ~facts (Gen.kernel case)) Technique.Baseline)
      with
      | [], Some clean ->
          let reference =
            simt_reference clean ~stores:(case.Gen.family <> Gen.Divergent)
          in
          ( fst
              (check memo ~reference
                 (prepared "mask-corrupt"
                    (simt_prepare (Gen.kernel ~program case))
                    Technique.Baseline)),
            true )
      | failures, _ -> (failures, true))

(* --- technique differential ------------------------------------------- *)

(* Baseline vs every technique through the heuristic compile path
   ([prepare]), with fast-forward equivalence for RegMutex (acquire stalls
   on top of the baseline's memory and barrier stalls). *)
let technique_failures memo prepare ~reference =
  Telemetry.Profile.time techniques_phase @@ fun () ->
  List.concat_map
    (fun tech ->
      fst
        (check memo
           ?twin:(if tech = Technique.Regmutex then Some Brute_force else None)
           ~reference
           (prepared (Technique.name tech) prepare tech)))
    (List.filter (fun t -> t <> Technique.Baseline) Technique.all)

(* --- per-case entry ---------------------------------------------------- *)

let test_case ?inject (case : Gen.t) =
  try
    let memo = Hashtbl.create 16 in
    (* One analysis of the program serves every phase. The techniques
       share one preparer (one |Es| choice, one RegMutex plan), and the
       facts keep each rewrite, so a forced split that matches the
       heuristic's |Bs| compiles nothing twice. *)
    let facts = Facts.of_program case.Gen.program in
    let prepare =
      Runner.prepare ~record_stores:true ~max_cycles ~facts arch0 (Gen.kernel case)
    in
    (* Prepared through [Runner] like every technique, so the baseline
       run is the same machine input as the heuristic path's baseline.
       A fault leaves the baseline as it is: only its brute-force twin is
       skipped. *)
    match
      Telemetry.Profile.time baseline_phase (fun () ->
          check memo
            ?twin:(if inject = None then Some Brute_force else None)
            ~reference:no_reference
            (prepared "baseline" prepare Technique.Baseline))
    with
    | failures, None -> { failures; injected = false }
    | baseline, Some base ->
        let reference =
          { stores = Some (Stats.store_traces base);
            lanes = None;
            oob = Some base.Stats.shared_oob }
        in
        let split =
          forced_split_failures memo case facts ~reference:{ reference with oob = None }
        in
        let regdem = forced_regdem_failures memo case facts ~reference in
        let failures, injected =
          (* With a fault requested only the phase carrying the mutation
             runs; the other invariants would re-test the unmutated
             program. *)
          match inject with
          | Some Oob_spill -> regdem ~fault:Oob_spill ()
          | Some ((Drop_acquire | Early_release | Drop_mov) as fault) -> split ~fault ()
          | Some Mask_corrupt -> mask_corrupt_failures memo case facts
          | None ->
              let split, _ = split () in
              let regdem, _ = regdem () in
              let simt = simt_failures memo case facts ~base in
              let techniques = technique_failures memo prepare ~reference in
              let roundtrip =
                Telemetry.Profile.time roundtrip_phase (fun () ->
                    roundtrip_failures case.Gen.program)
              in
              (baseline @ roundtrip @ techniques @ split @ regdem @ simt, false)
        in
        { failures; injected }
  with e ->
    { failures =
        [ { kind = Crash;
            detail = Printf.sprintf "unexpected exception: %s" (Printexc.to_string e) } ];
      injected = false }

let test_seed ?inject seed =
  let case = Gen.generate ~seed in
  (case, test_case ?inject case)
