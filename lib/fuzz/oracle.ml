module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset
module Program = Gpu_isa.Program
module Parser = Gpu_isa.Parser
module Codec = Gpu_isa.Codec
module Liveness = Gpu_analysis.Liveness
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

(* --- the per-case simulation memo ----------------------------------------- *)

(* Simulations the oracle asked for, and machine runs it actually made,
   summed over every case and domain ([regmutex fuzz] prints both). *)
let requested = Atomic.make 0
let runs = Atomic.make 0

let simulations () = Atomic.get requested
let machine_runs () = Atomic.get runs

(* One case's statistics by machine input ([Runner.input_key], as in
   [Experiments.Engine.prepare]): equal keys mean an equal input, so the
   memoised statistics are the ones a re-run would produce. Phases
   that reach one input twice (a technique that falls back to the
   baseline, the forced split's paired run) simulate it once. A raising
   run is not cached: the next request re-runs it and raises again. *)
type memo = (string, Stats.t) Hashtbl.t

let new_memo () : memo = Hashtbl.create 16

let memo_run memo config kernel run =
  Atomic.incr requested;
  let key = Runner.input_key config kernel in
  match Hashtbl.find_opt memo key with
  | Some stats -> stats
  | None ->
      Atomic.incr runs;
      let stats = run () in
      Hashtbl.add memo key stats;
      stats

(* [Runner.simulate] through the memo. *)
let runner_simulate memo config prepared =
  let kernel = prepared.Technique.kernel in
  memo_run memo config kernel (fun () -> Runner.simulate config prepared)

(* [Runner.execute]'s statistics, simulated through the memo. *)
let execute memo ?options ?corrupt_mask ?lane_resolved ?fast_forward tech kern =
  let prepared, config =
    Runner.prepare ?options ?corrupt_mask ?lane_resolved ?fast_forward
      ~record_stores:true ~max_cycles arch0 tech kern
  in
  runner_simulate memo config prepared

type sim_result =
  | Finished of Stats.t
  | Dead of string
  | Tripped of string

(* [Gpu.run] through the memo, except a run with an [observe] callback:
   the caller watches that one cycle by cycle, so it always simulates. *)
let simulate ?observe memo config kernel =
  let run () = Gpu.run ?observe config kernel in
  match
    match observe with
    | Some _ ->
        Atomic.incr requested;
        Atomic.incr runs;
        run ()
    | None -> memo_run memo config kernel run
  with
  | stats -> Finished stats
  | exception Gpu.Deadlock d -> Dead (Format.asprintf "%a" Gpu.pp_deadlock d)
  | exception Sm.Verification_failure m -> Tripped m

(* Everything the fast-forward contract promises to keep bit-identical. *)
let stats_fields (s : Stats.t) =
  ( s.Stats.cycles,
    s.Stats.instructions,
    s.Stats.acquire_execs,
    s.Stats.acquire_first_try,
    s.Stats.acquire_stall_cycles,
    s.Stats.release_execs,
    s.Stats.shared_oob,
    s.Stats.spill_stores,
    s.Stats.fill_loads,
    s.Stats.rf_reads,
    s.Stats.rf_writes,
    s.Stats.shared_reads,
    s.Stats.shared_writes,
    s.Stats.resident_warp_cycles,
    s.Stats.warp_capacity_cycles,
    s.Stats.ctas_retired,
    s.Stats.timed_out,
    s.Stats.active_lane_cycles,
    s.Stats.predicated_lane_cycles,
    s.Stats.divergent_branches )

let diff_stats ?(sides = ("fast-forward", "brute-force")) ~label (ff : Stats.t)
    (bf : Stats.t) =
  let sa, sb = sides in
  if stats_fields ff <> stats_fields bf then
    Some
      (Printf.sprintf
         "%s: %s (%d cycles, %d instrs) vs %s (%d cycles, %d instrs) counters \
          differ"
         label sa ff.Stats.cycles ff.Stats.instructions sb bf.Stats.cycles
         bf.Stats.instructions)
  else
    match
      List.find_opt
        (fun r -> Stats.stall_count ff r <> Stats.stall_count bf r)
        Stats.all_reasons
    with
    | Some r ->
        Some
          (Printf.sprintf "%s: stall[%s] = %d %s vs %d %s" label
             (Stats.reason_name r) (Stats.stall_count ff r) sa
             (Stats.stall_count bf r) sb)
    | None -> (
        match
          Checker.diff_store_traces ~expected:(Stats.store_traces bf)
            ~actual:(Stats.store_traces ff)
        with
        | Some d -> Some (Printf.sprintf "%s: store traces differ: %s" label d)
        | None -> None)

(* --- round-trips ------------------------------------------------------ *)

let roundtrip_failures prog =
  let failures = ref [] in
  let fail detail = failures := { kind = Roundtrip; detail } :: !failures in
  (let printed = Format.asprintf "%a" Program.pp prog in
   match Parser.parse ~name:prog.Program.name printed with
   | reparsed ->
       if not (Program.equal reparsed prog) then
         fail "parse (print p) <> p: printer/parser asymmetry"
   | exception Parser.Parse_error e ->
       fail (Format.asprintf "printed program does not parse: %a" Parser.pp_error e)
   | exception Program.Invalid m ->
       fail (Printf.sprintf "printed program re-validates differently: %s" m));
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

let replace p idx instr =
  Program.map_instrs (fun i old -> if i = idx then instr else old) p

let apply_fault fault ~bs p =
  match fault with
  | Drop_acquire -> (
      match find_first (fun i -> i = Instr.Acquire) p with
      | Some idx -> (replace p idx (Instr.Mov (0, Instr.Reg 0)), true)
      | None -> (p, false))
  | Early_release -> (
      match find_first (fun i -> i = Instr.Acquire) p with
      | Some idx -> (Program.insert_before p [ (idx + 1, [ Instr.Release ]) ], true)
      | None -> (p, false))
  | Drop_mov -> (
      (* Only a compaction MOV whose base destination is read later can
         change behaviour when dropped: with a dead destination the
         mutation is benign by construction. Of the live ones, the last
         leaves its value the fewest instructions in which to be masked
         (the generated kernels fold values through min/max chains) before
         it reaches a store. *)
      let live_out = (Liveness.analyze p).Liveness.live_out in
      let rec last_live idx =
        if idx < 0 then None
        else
          match Program.get p idx with
          | Instr.Mov (d, Instr.Reg s)
            when s >= bs && d < bs && Regset.mem d live_out.(idx) ->
              Some (idx, d)
          | _ -> last_live (idx - 1)
      in
      match last_live (Program.length p - 1) with
      | Some (idx, d) -> (replace p idx (Instr.Mov (d, Instr.Reg d)), true)
      | None -> (p, false))
  | Oob_spill ->
      (* Targets the forced-RegDem branch, not the SRP split. *)
      (p, false)
  | Mask_corrupt ->
      (* A runtime injection (Runner's [corrupt_mask]), not a program
         mutation; handled by the SIMT branch of the oracle. *)
      (p, false)

(* --- forced Bs/Es split ------------------------------------------------ *)

(* Capacity pinned to exactly two resident CTAs, with exactly [sections]
   SRP sections left over ([Policy.regs_per_cta] for Srp is unrounded, so
   the arithmetic is exact) — guaranteeing real acquire contention while
   [sections >= 1] keeps barrier-free kernels deadlock-free. *)
let contended_arch ~regs_cta ~es ~sections =
  {
    arch0 with
    Arch_config.max_ctas = 2;
    regfile_regs = (2 * regs_cta) + (sections * es * 32);
  }

let forced_split_failures memo (case : Gen.t) ~expected ~inject =
  let prog = case.Gen.program in
  let liveness = Liveness.analyze prog in
  let peak = Liveness.max_pressure liveness in
  let bs = max 1 (min (prog.Program.n_regs - 1) (peak - 1)) in
  let es = prog.Program.n_regs - bs in
  if case.Gen.family <> Gen.Pressure || es < 1 || prog.Program.n_regs < 3 then
    ([], false)
  else
    match Transform.apply ~bs ~es prog with
    | exception Transform.Unsound violations ->
        ( [ {
              kind = Unsound_transform;
              detail =
                Format.asprintf "transform bs=%d es=%d rejected its own output: %a"
                  bs es
                  (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
                     Checker.pp_violation)
                  violations;
            } ],
          false )
    | plan ->
        let transformed, injected =
          match inject with
          | None -> (plan.Transform.transformed, false)
          | Some f -> apply_fault f ~bs plan.Transform.transformed
        in
        let kern = Gen.kernel ~program:transformed case in
        let policy = Policy.Srp { bs; es; verify = true } in
        let wpc = case.Gen.threads / 32 in
        let regs_cta = Policy.regs_per_cta arch0 policy ~warps_per_cta:wpc in
        let sections = 1 + (case.Gen.salt mod 3) in
        let arch = contended_arch ~regs_cta ~es ~sections in
        let config =
          { (Gpu.default_config arch policy) with Gpu.record_stores = true; max_cycles }
        in
        let failures = ref [] in
        let fail kind detail = failures := { kind; detail } :: !failures in
        let label =
          Printf.sprintf "srp bs=%d es=%d sections=%d" bs es sections
        in
        (* Brute-force run doubling as the SRP-conservation sampler: the
           invariant is probed after every cycle, which covers every
           acquire and release event. *)
        let conservation = ref None in
        let observe ~cycle sms =
          if !conservation = None then
            for i = 0 to Array.length sms - 1 do
              match Sm.srp_invariant sms.(i) with
              | Some msg ->
                  if !conservation = None then conservation := Some (cycle, msg)
              | None -> ()
            done
        in
        (match
           simulate ~observe memo { config with Gpu.fast_forward = false } kern
         with
        | Dead d -> fail Deadlock (Printf.sprintf "%s: %s" label d)
        | Tripped m -> fail Verification (Printf.sprintf "%s: %s" label m)
        | Finished brute -> (
            (match !conservation with
            | Some (cycle, msg) ->
                fail Conservation (Printf.sprintf "%s at cycle %d: %s" label cycle msg)
            | None -> ());
            if brute.Stats.timed_out then
              fail Timeout
                (Printf.sprintf "%s: exceeded %d cycles" label max_cycles)
            else begin
              (match
                 Checker.diff_store_traces ~expected
                   ~actual:(Stats.store_traces brute)
               with
              | Some d -> fail Divergence (Printf.sprintf "%s: %s" label d)
              | None -> ());
              match simulate memo config kern with
              | Dead d ->
                  fail Deadlock
                    (Printf.sprintf "%s (fast-forward only): %s" label d)
              | Tripped m ->
                  fail Verification
                    (Printf.sprintf "%s (fast-forward only): %s" label m)
              | Finished ff -> (
                  match diff_stats ~label ff brute with
                  | Some d -> fail Stats_mismatch d
                  | None -> ())
            end));
        (* Paired-warps specialization on the same transformed program:
           ample register file, contention only within a pair. *)
        let paired_policy = Policy.Srp_paired { bs; es; verify = true } in
        let paired_config =
          { (Gpu.default_config arch0 paired_policy) with
            Gpu.record_stores = true;
            max_cycles }
        in
        (match simulate memo paired_config kern with
        | Dead d -> fail Deadlock (Printf.sprintf "paired bs=%d es=%d: %s" bs es d)
        | Tripped m ->
            fail Verification (Printf.sprintf "paired bs=%d es=%d: %s" bs es m)
        | Finished stats ->
            if stats.Stats.timed_out then
              fail Timeout (Printf.sprintf "paired bs=%d es=%d timed out" bs es)
            else (
              match
                Checker.diff_store_traces ~expected
                  ~actual:(Stats.store_traces stats)
              with
              | Some d -> fail Divergence (Printf.sprintf "paired bs=%d es=%d: %s" bs es d)
              | None -> ()));
        (List.rev !failures, injected)

(* --- technique differential ------------------------------------------- *)

(* The shared-memory discipline rule: a technique must hit the user
   shared-memory window exactly as often out-of-bounds as the baseline
   does — a delta means a transform leaked accesses outside its
   allocation (RegDem correctness depends on this: spill traffic must
   stay inside the reserved window). Strict by default; configurable so
   the rule itself is testable. *)
let oob_delta ~strict_oob ~base_oob ~label (stats : Stats.t) =
  if strict_oob && stats.Stats.shared_oob <> base_oob then
    Some
      {
        kind = Shared_oob;
        detail =
          Printf.sprintf "%s: %d out-of-bounds shared accesses vs %d in baseline"
            label stats.Stats.shared_oob base_oob;
      }
  else None

(* [base] is the baseline phase's [(prepared, config, stats)]. *)
let technique_failures memo (case : Gen.t) ~base ~expected ~base_oob ~strict_oob =
  let kern = Gen.kernel case in
  let failures = ref [] in
  let fail kind detail = failures := { kind; detail } :: !failures in
  let successes = ref [] in
  List.iter
    (fun tech ->
      let name = Technique.name tech in
      match
        let prepared, config =
          Runner.prepare ~record_stores:true ~max_cycles arch0 tech kern
        in
        (prepared, config, runner_simulate memo config prepared)
      with
      | (_, _, stats) as run ->
          if stats.Stats.timed_out then
            fail Timeout (Printf.sprintf "%s: exceeded %d cycles" name max_cycles)
          else (
            (match
               Checker.diff_store_traces ~expected
                 ~actual:(Stats.store_traces stats)
             with
            | Some d -> fail Divergence (Printf.sprintf "%s: %s" name d)
            | None -> ());
            (match oob_delta ~strict_oob ~base_oob ~label:name stats with
            | Some f -> failures := f :: !failures
            | None -> ());
            successes := (tech, run) :: !successes)
      | exception Gpu.Deadlock d ->
          fail Deadlock (Format.asprintf "%s: %a" name Gpu.pp_deadlock d)
      | exception Sm.Verification_failure m ->
          fail Verification (Printf.sprintf "%s: %s" name m)
      | exception Transform.Unsound violations ->
          fail Unsound_transform
            (Format.asprintf "%s: %a" name
               (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
                  Checker.pp_violation)
               violations))
    (List.filter (fun t -> t <> Technique.Baseline) Technique.all);
  (* Fast-forward equivalence through the heuristic path: baseline (memory
     and barrier stalls) and RegMutex (acquire stalls on top). The
     fast-forward side is the run the case already has; the brute-force
     side re-simulates its prepared input. *)
  let runs = (Technique.Baseline, base) :: !successes in
  List.iter
    (fun tech ->
      let name = Technique.name tech in
      match List.assoc_opt tech runs with
      | None -> ()
      | Some (prepared, config, ff) -> (
          match
            runner_simulate memo { config with Gpu.fast_forward = false } prepared
          with
          | bf -> (
              match diff_stats ~label:(name ^ " (heuristic)") ff bf with
              | Some d -> fail Stats_mismatch d
              | None -> ())
          | exception Gpu.Deadlock d ->
              fail Deadlock
                (Format.asprintf "%s brute-force: %a" name Gpu.pp_deadlock d)
          | exception Sm.Verification_failure m ->
              fail Verification (Printf.sprintf "%s brute-force: %s" name m)))
    [ Technique.Baseline; Technique.Regmutex ];
  List.rev !failures

(* --- forced RegDem demotion -------------------------------------------- *)

(* The RegDem heuristic only demotes when occupancy strictly improves,
   which small fuzz kernels rarely trigger — so the demotion machinery is
   additionally exercised with a salt-derived forced [keep], independent
   of profitability. The transformed kernel must reproduce the baseline
   store trace, keep fast-forward and brute-force stepping bit-identical,
   and never touch shared memory outside its reserved spill window. *)
let forced_regdem_failures memo (case : Gen.t) ~expected ~base_oob ~strict_oob
    ~inject =
  let prog = case.Gen.program in
  let n_regs = prog.Program.n_regs in
  if n_regs < 3 then ([], false)
  else
    let keep = 1 + (case.Gen.salt mod (n_regs - 1)) in
    let wpc = max 1 (case.Gen.threads / 32) in
    match Regdem.transform ~keep ~wpc prog with
    | exception Regdem.Unsound m ->
        ( [ {
              kind = Unsound_transform;
              detail =
                Printf.sprintf "regdem keep=%d wpc=%d rejected its own output: %s"
                  keep wpc m;
            } ],
          false )
    | plan ->
        let transformed, injected =
          match inject with
          | Some Oob_spill -> (
              (* Corrupt the first spill store's offset to land one past
                 the window: every executing warp must bump [shared_oob],
                 which the strict window rule then reports. *)
              match
                find_first
                  (function Instr.Store (Instr.Spill, _, _, _) -> true | _ -> false)
                  plan.Regdem.transformed
              with
              | Some idx -> (
                  match Program.get plan.Regdem.transformed idx with
                  | Instr.Store (Instr.Spill, addr, v, _) ->
                      ( replace plan.Regdem.transformed idx
                          (Instr.Store
                             (Instr.Spill, addr, v, plan.Regdem.spill_words)),
                        true )
                  | _ -> assert false)
              | None -> (plan.Regdem.transformed, false))
          | Some (Drop_acquire | Early_release | Drop_mov | Mask_corrupt)
          | None ->
              (plan.Regdem.transformed, false)
        in
        let kern =
          Kernel.with_shmem_bytes
            (Gen.kernel ~program:transformed case)
            (Regdem.shmem_bytes_with_window (Gen.kernel case)
               ~spill_words:plan.Regdem.spill_words)
        in
        let policy =
          Policy.Regdem
            { regs_per_thread = plan.Regdem.allocated;
              spill_words = plan.Regdem.spill_words }
        in
        let config =
          { (Gpu.default_config arch0 policy) with
            Gpu.record_stores = true;
            max_cycles }
        in
        let failures = ref [] in
        let fail kind detail = failures := { kind; detail } :: !failures in
        let label = Printf.sprintf "regdem keep=%d wpc=%d" keep wpc in
        (match simulate memo { config with Gpu.fast_forward = false } kern with
        | Dead d -> fail Deadlock (Printf.sprintf "%s: %s" label d)
        | Tripped m -> fail Verification (Printf.sprintf "%s: %s" label m)
        | Finished brute ->
            if brute.Stats.timed_out then
              fail Timeout (Printf.sprintf "%s: exceeded %d cycles" label max_cycles)
            else begin
              (match
                 Checker.diff_store_traces ~expected
                   ~actual:(Stats.store_traces brute)
               with
              | Some d -> fail Divergence (Printf.sprintf "%s: %s" label d)
              | None -> ());
              (match oob_delta ~strict_oob ~base_oob ~label brute with
              | Some f -> failures := f :: !failures
              | None -> ());
              match simulate memo config kern with
              | Dead d ->
                  fail Deadlock
                    (Printf.sprintf "%s (fast-forward only): %s" label d)
              | Tripped m ->
                  fail Verification
                    (Printf.sprintf "%s (fast-forward only): %s" label m)
              | Finished ff -> (
                  match diff_stats ~label ff brute with
                  | Some d -> fail Stats_mismatch d
                  | None -> ())
            end);
        (List.rev !failures, injected)

(* --- SIMT execution ----------------------------------------------------- *)

let simt_options = { Technique.default_options with Technique.simt = true }

(* Warp-uniform equivalence: the Pressure and Barrier families never read
   [%laneid], so every lane of a warp follows one path and the SIMT model
   must reproduce the warp-uniform run bit-for-bit — counters, stall
   histogram and store traces. This is the fuzz-side enforcement of the
   two-execution-models contract. The SIMT run starts lane-resolved: a
   collapsed warp would execute on the warp-uniform interpreter, and the
   check would compare that interpreter with itself. *)
let simt_equiv_failures memo (case : Gen.t) ~base =
  match
    execute memo ~options:simt_options ~lane_resolved:true Technique.Baseline
      (Gen.kernel case)
  with
  | simt -> (
      match
        diff_stats ~sides:("simt", "uniform") ~label:"baseline uniform-vs-simt"
          simt base
      with
      | Some d -> [ { kind = Stats_mismatch; detail = d } ]
      | None -> [])
  | exception Gpu.Deadlock d ->
      [ { kind = Deadlock;
          detail = Format.asprintf "baseline --simt: %a" Gpu.pp_deadlock d } ]

(* Value-safe techniques under true divergence. RegDem is excluded by
   design: its spill window holds one value per warp-level register, so a
   demoted register whose lanes diverge is clobbered on spill (last lane
   wins) and every lane reads that value back on fill — RegDem is only
   sound for warp-uniform register values. *)
let simt_divergent_techniques =
  Technique.[ Regmutex; Regmutex_paired; Owf; Rfv ]

let pp_violations =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
    Checker.pp_violation

(* Divergent-family differential: a baseline SIMT run's lane-resolved
   store traces are the reference; every value-safe technique must
   reproduce them lane-for-lane (and the warp-level traces too), and the
   fast-forward contract must hold under SIMT for the heuristic path. *)
let simt_divergent_failures memo (case : Gen.t) =
  let kern = Gen.kernel case in
  let failures = ref [] in
  let fail kind detail = failures := { kind; detail } :: !failures in
  (match execute memo ~options:simt_options Technique.Baseline kern with
  | exception Gpu.Deadlock d ->
      fail Deadlock (Format.asprintf "baseline --simt: %a" Gpu.pp_deadlock d)
  | base ->
      if base.Stats.timed_out then
        fail Timeout
          (Printf.sprintf "baseline --simt: exceeded %d cycles" max_cycles)
      else begin
        let expected_lanes = Stats.lane_store_traces base in
        let expected = Stats.store_traces base in
        List.iter
          (fun tech ->
            let name = Technique.name tech ^ " --simt" in
            match execute memo ~options:simt_options tech kern with
            | stats ->
                if stats.Stats.timed_out then
                  fail Timeout
                    (Printf.sprintf "%s: exceeded %d cycles" name max_cycles)
                else begin
                  (match
                     Checker.diff_lane_store_traces ~expected:expected_lanes
                       ~actual:(Stats.lane_store_traces stats)
                   with
                  | Some d ->
                      fail Divergence (Printf.sprintf "%s (lanes): %s" name d)
                  | None -> ());
                  match
                    Checker.diff_store_traces ~expected
                      ~actual:(Stats.store_traces stats)
                  with
                  | Some d -> fail Divergence (Printf.sprintf "%s: %s" name d)
                  | None -> ()
                end
            | exception Gpu.Deadlock d ->
                fail Deadlock (Format.asprintf "%s: %a" name Gpu.pp_deadlock d)
            | exception Sm.Verification_failure m ->
                fail Verification (Printf.sprintf "%s: %s" name m)
            | exception Transform.Unsound violations ->
                fail Unsound_transform
                  (Format.asprintf "%s: %a" name pp_violations violations))
          simt_divergent_techniques;
        List.iter
          (fun tech ->
            let name = Technique.name tech ^ " --simt (heuristic)" in
            match
              ( execute memo ~options:simt_options tech kern,
                execute memo ~options:simt_options ~fast_forward:false tech kern )
            with
            | ff, bf -> (
                match diff_stats ~label:name ff bf with
                | Some d -> fail Stats_mismatch d
                | None -> ())
            | exception Gpu.Deadlock d ->
                fail Deadlock (Format.asprintf "%s: %a" name Gpu.pp_deadlock d)
            | exception Sm.Verification_failure m ->
                fail Verification (Printf.sprintf "%s: %s" name m))
          Technique.[ Baseline; Regmutex ]
      end);
  List.rev !failures

(* Mask-corruption self-test: clear lane 1 from every warp's initial
   active mask and diff the lane-resolved traces against a clean SIMT run.
   The warp-level trace records the lowest active lane's stores, so on the
   uniform families the corruption is provably invisible at warp
   granularity (lane 0 leads every instruction) — only the lane-resolved
   oracle can catch it, which is exactly the strictly-stronger property
   this injection validates. *)
let mask_corrupt_failures memo (case : Gen.t) =
  let kern = Gen.kernel case in
  let run ?corrupt_mask () =
    execute memo ~options:simt_options ?corrupt_mask Technique.Baseline kern
  in
  match (run (), run ~corrupt_mask:2 ()) with
  | exception Gpu.Deadlock d ->
      [ { kind = Deadlock;
          detail = Format.asprintf "mask-corrupt: %a" Gpu.pp_deadlock d } ]
  | clean, bad -> (
      let failures =
        match
          Checker.diff_lane_store_traces
            ~expected:(Stats.lane_store_traces clean)
            ~actual:(Stats.lane_store_traces bad)
        with
        | Some d ->
            [ { kind = Divergence; detail = "mask-corrupt (lanes): " ^ d } ]
        | None -> []
      in
      match case.Gen.family with
      | Gen.Divergent ->
          (* Under divergence a dead lane 1 can change which lane leads an
             arm, so the warp-level trace may legitimately move too. *)
          failures
      | Gen.Pressure | Gen.Barrier -> (
          match
            Checker.diff_store_traces
              ~expected:(Stats.store_traces clean)
              ~actual:(Stats.store_traces bad)
          with
          | Some d ->
              { kind = Crash;
                detail =
                  "mask-corrupt visible at warp granularity (lane oracle not \
                   strictly stronger here): " ^ d }
              :: failures
          | None -> failures))

(* --- per-case entry ---------------------------------------------------- *)

(* Oracle-stage profiling (surfaced by `regmutex fuzz --profile`).
   Registered at module init, before the driver spawns worker domains;
   the accumulators are atomic, so concurrent cases time safely. *)
let baseline_phase = Telemetry.Profile.phase "oracle.baseline"
let roundtrip_phase = Telemetry.Profile.phase "oracle.roundtrip"
let techniques_phase = Telemetry.Profile.phase "oracle.techniques"
let forced_split_phase = Telemetry.Profile.phase "oracle.forced-split"
let forced_regdem_phase = Telemetry.Profile.phase "oracle.forced-regdem"
let simt_phase = Telemetry.Profile.phase "oracle.simt"

let test_case ?inject ?(strict_shared_oob = true) (case : Gen.t) =
  try
    let prog = case.Gen.program in
    let memo = new_memo () in
    (* Prepared through [Runner] like every technique, so the baseline
       run is the same machine input as the heuristic path's baseline. *)
    let base_prepared, base_config =
      Runner.prepare ~record_stores:true ~max_cycles arch0 Technique.Baseline
        (Gen.kernel case)
    in
    match
      Telemetry.Profile.time baseline_phase (fun () ->
          simulate memo base_config base_prepared.Technique.kernel)
    with
    | Dead d ->
        { failures = [ { kind = Deadlock; detail = "baseline: " ^ d } ]; injected = false }
    | Tripped m ->
        (* Static policy never verifies; this cannot happen. *)
        { failures = [ { kind = Crash; detail = "baseline verification: " ^ m } ];
          injected = false }
    | Finished base ->
        if base.Stats.timed_out then
          { failures =
              [ { kind = Timeout;
                  detail = Printf.sprintf "baseline: exceeded %d cycles" max_cycles } ];
            injected = false }
        else
          let expected = Stats.store_traces base in
          let base_oob = base.Stats.shared_oob in
          let strict_oob = strict_shared_oob in
          let split () =
            Telemetry.Profile.time forced_split_phase (fun () ->
                forced_split_failures memo case ~expected ~inject)
          in
          let regdem () =
            Telemetry.Profile.time forced_regdem_phase (fun () ->
                forced_regdem_failures memo case ~expected ~base_oob
                  ~strict_oob ~inject)
          in
          let simt () =
            Telemetry.Profile.time simt_phase (fun () ->
                match case.Gen.family with
                | Gen.Divergent -> simt_divergent_failures memo case
                | Gen.Pressure | Gen.Barrier ->
                    simt_equiv_failures memo case ~base)
          in
          let failures, injected =
            (* With a fault requested only the branch carrying the mutation
               runs; the other invariants would re-test the unmutated
               program. *)
            match inject with
            | Some Oob_spill -> regdem ()
            | Some (Drop_acquire | Early_release | Drop_mov) -> split ()
            | Some Mask_corrupt ->
                ( Telemetry.Profile.time simt_phase (fun () ->
                      mask_corrupt_failures memo case),
                  true )
            | None ->
                let split_failures, _ = split () in
                let regdem_failures, _ = regdem () in
                ( Telemetry.Profile.time roundtrip_phase (fun () ->
                      roundtrip_failures prog)
                  @ Telemetry.Profile.time techniques_phase (fun () ->
                        technique_failures memo case
                          ~base:(base_prepared, base_config, base)
                          ~expected ~base_oob ~strict_oob)
                  @ split_failures @ regdem_failures @ simt (),
                  false )
          in
          { failures; injected }
  with e ->
    { failures =
        [ { kind = Crash;
            detail = Printf.sprintf "unexpected exception: %s" (Printexc.to_string e) } ];
      injected = false }

let test_seed ?inject ?strict_shared_oob seed =
  let case = Gen.generate ~seed in
  (case, test_case ?inject ?strict_shared_oob case)
