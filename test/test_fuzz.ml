(* The fuzzing subsystem's own tests: generator determinism, round-trip
   properties over generated programs, a clean oracle sweep, the
   forward-progress watchdog, and the injection → catch → shrink loop that
   proves the oracle can actually detect a broken transform. *)

module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr
module Parser = Gpu_isa.Parser
module Codec = Gpu_isa.Codec

let test_rng_determinism () =
  let a = Fuzz.Rng.of_seed 42 and b = Fuzz.Rng.of_seed 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Fuzz.Rng.int a 1000) (Fuzz.Rng.int b 1000)
  done;
  (* A split stream must not disturb (or follow) its parent. *)
  let c = Fuzz.Rng.of_seed 42 and d = Fuzz.Rng.of_seed 42 in
  let c' = Fuzz.Rng.split c in
  ignore (Fuzz.Rng.int c' 1000);
  ignore (Fuzz.Rng.int d 1000);
  Alcotest.(check int) "parent advanced identically by split"
    (Fuzz.Rng.int d 1000) (Fuzz.Rng.int c 1000)

let test_gen_determinism () =
  for seed = 0 to 30 do
    let a = Fuzz.Gen.generate ~seed and b = Fuzz.Gen.generate ~seed in
    Alcotest.check Util.program "same program" a.Fuzz.Gen.program b.Fuzz.Gen.program;
    Alcotest.(check int) "same grid" a.Fuzz.Gen.grid b.Fuzz.Gen.grid;
    Alcotest.(check int) "same threads" a.Fuzz.Gen.threads b.Fuzz.Gen.threads;
    Alcotest.(check (array int)) "same params" a.Fuzz.Gen.params b.Fuzz.Gen.params
  done

let test_gen_shapes () =
  (* Structural guarantees the oracle relies on. *)
  let seen_barrier = ref false
  and seen_pressure = ref false
  and seen_divergent = ref false in
  for seed = 0 to 50 do
    let case = Fuzz.Gen.generate ~seed in
    let prog = case.Fuzz.Gen.program in
    Alcotest.(check bool) "warp-pairable thread count" true
      (case.Fuzz.Gen.threads mod 64 = 0);
    (match case.Fuzz.Gen.family with
    | Fuzz.Gen.Barrier ->
        seen_barrier := true;
        Alcotest.(check bool) "barrier family has a barrier" true
          (Program.count (fun i -> i = Instr.Bar) prog >= 1)
    | Fuzz.Gen.Pressure ->
        seen_pressure := true;
        Alcotest.(check int) "pressure family is barrier-free" 0
          (Program.count (fun i -> i = Instr.Bar) prog)
    | Fuzz.Gen.Divergent ->
        seen_divergent := true;
        (* Barrier-free (a divergent-arm barrier has no portable SIMT
           semantics) and genuinely lane-dependent: the program must read
           [%laneid]. *)
        Alcotest.(check int) "divergent family is barrier-free" 0
          (Program.count (fun i -> i = Instr.Bar) prog);
        let printed = Format.asprintf "%a" Program.pp prog in
        let contains sub =
          let n = String.length printed and m = String.length sub in
          let rec go i = i + m <= n && (String.sub printed i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "divergent family reads %laneid" true
          (contains "%laneid"));
    Alcotest.(check bool) "stores something" true
      (Program.count (function Instr.Store _ -> true | _ -> false) prog >= 1)
  done;
  Alcotest.(check bool) "all three families exercised" true
    (!seen_barrier && !seen_pressure && !seen_divergent)

let test_roundtrips_over_generated () =
  (* Satellite property: the printer, parser and binary codec agree on
     every program the fuzzer can produce. *)
  for seed = 0 to 60 do
    let prog = (Fuzz.Gen.generate ~seed).Fuzz.Gen.program in
    let reparsed =
      Parser.parse ~name:prog.Program.name (Format.asprintf "%a" Program.pp prog)
    in
    Alcotest.check Util.program
      (Printf.sprintf "parse (print p) = p (seed %d)" seed)
      prog reparsed;
    Alcotest.(check bool)
      (Printf.sprintf "generated programs are encodable (seed %d)" seed)
      true (Codec.encodable prog);
    Alcotest.check Util.program
      (Printf.sprintf "decode (encode p) = p (seed %d)" seed)
      prog
      (Codec.decode_program ~name:prog.Program.name (Codec.encode_program prog))
  done

let test_oracle_clean_sweep () =
  for seed = 0 to 14 do
    let _, report = Fuzz.Oracle.test_seed seed in
    List.iter
      (fun f ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "%a" Fuzz.Oracle.pp_failure f))
      report.Fuzz.Oracle.failures
  done

(* The per-case memo serves a repeated machine input (a technique that
   falls back to the baseline's input, the forced split's paired run)
   from the first run of it. The counts over seeds 0..14 are pinned: a key
   that dropped part of the input would serve a brute-force or SIMT run
   the statistics of another input, and report fewer machine runs. *)
let test_oracle_memo () =
  let s0 = Fuzz.Oracle.simulations () and m0 = Fuzz.Oracle.machine_runs () in
  for seed = 0 to 14 do
    ignore (Fuzz.Oracle.test_seed seed)
  done;
  let sims = Fuzz.Oracle.simulations () - s0
  and runs = Fuzz.Oracle.machine_runs () - m0 in
  Alcotest.(check (pair int int)) "simulations, machine runs" (210, 180)
    (sims, runs)

let test_deadlock_guard () =
  (* An SRP with zero sections and a kernel that acquires: no warp can
     ever issue again and no wakeup exists — the simulator must raise the
     structured Deadlock, identically in both stepping modes. The second
     kernel first idles on a global load (a frozen span with a finite
     wakeup), so brute-force stepping must drop that span's wakeup once
     the load returns and re-check the later frozen cycles. *)
  let arch =
    { Util.small_arch with Gpu_uarch.Arch_config.regfile_regs = 32; max_ctas = 1 }
  in
  let policy = Gpu_sim.Policy.Srp { bs = 1; es = 1; verify = false } in
  let check body =
    let prog = Program.create ~name:"dl" body in
    let kern =
      Gpu_sim.Kernel.make ~name:"dl" ~grid_ctas:1 ~cta_threads:32 ~params:[||] prog
    in
    let cycle_of fast_forward =
      let config =
        { (Gpu_sim.Gpu.default_config arch policy) with
          Gpu_sim.Gpu.max_cycles = 10_000;
          fast_forward }
      in
      match Gpu_sim.Gpu.run config kern with
      | _ -> Alcotest.fail "deadlock not detected"
      | exception Gpu_sim.Gpu.Deadlock info ->
          Alcotest.(check int) "nothing retired" 0 info.Gpu_sim.Gpu.dl_retired;
          Alcotest.(check bool) "per-SM diagnostics present" true
            (info.Gpu_sim.Gpu.dl_sms <> []);
          info.Gpu_sim.Gpu.dl_cycle
    in
    let cycle = cycle_of true in
    Alcotest.(check int) "same detection cycle in both modes" (cycle_of false)
      cycle;
    cycle
  in
  let at_once =
    check [| Instr.Acquire; Instr.Mov (0, Instr.Imm 1); Instr.Release; Instr.Exit |]
  in
  let after_load =
    check
      [| Instr.Load (Instr.Global, 0, Instr.Imm 0, 0);
         Instr.Bin (Instr.Add, 0, Instr.Reg 0, Instr.Imm 1);
         Instr.Acquire;
         Instr.Mov (0, Instr.Imm 1);
         Instr.Release;
         Instr.Exit |]
  in
  Alcotest.(check bool) "deadlock follows the load's wait" true
    (after_load > at_once)

let find_caught_injection fault ~max_seed =
  let rec go seed =
    if seed > max_seed then None
    else
      let case, report = Fuzz.Oracle.test_seed ~inject:fault seed in
      if report.Fuzz.Oracle.injected && report.Fuzz.Oracle.failures <> [] then
        Some (case, report)
      else go (seed + 1)
  in
  go 0

let test_injection_caught () =
  List.iter
    (fun fault ->
      match find_caught_injection fault ~max_seed:79 with
      | Some _ -> ()
      | None ->
          Alcotest.failf "fault %s escaped the oracle on seeds 0..79"
            (Fuzz.Oracle.fault_name fault))
    [ Fuzz.Oracle.Drop_acquire; Fuzz.Oracle.Early_release; Fuzz.Oracle.Drop_mov;
      Fuzz.Oracle.Oob_spill; Fuzz.Oracle.Mask_corrupt ];
  (* Lane 1 exiting early is caught on every case it applies to, and on
     the warp-uniform families only by the lane-resolved traces: the
     warp-level trace records lane 0, which runs unchanged. *)
  for seed = 0 to 39 do
    let case, report = Fuzz.Oracle.test_seed ~inject:Fuzz.Oracle.Mask_corrupt seed in
    if report.Fuzz.Oracle.injected then begin
      if report.Fuzz.Oracle.failures = [] then
        Alcotest.failf "seed %d: mask-corrupt escaped the oracle" seed;
      if case.Fuzz.Gen.family <> Fuzz.Gen.Divergent then
        List.iter
          (fun f ->
            if not (String.starts_with ~prefix:"mask-corrupt (lanes): " f.Fuzz.Oracle.detail)
            then
              Alcotest.failf "seed %d: mask-corrupt seen beyond the lane traces: %s"
                seed (Format.asprintf "%a" Fuzz.Oracle.pp_failure f))
          report.Fuzz.Oracle.failures
    end
  done;
  (* A program that already uses the last register leaves the prefix no
     fresh one: the fault is reported as not applied, and nothing fails. *)
  let full =
    Program.create ~name:"full"
      [| Instr.Mov (Gpu_isa.Regset.max_reg, Instr.Imm 1); Instr.Exit |]
  in
  let report =
    Fuzz.Oracle.test_case ~inject:Fuzz.Oracle.Mask_corrupt
      { (Fuzz.Gen.generate ~seed:0) with Fuzz.Gen.program = full }
  in
  Alcotest.(check (pair bool (list string)))
    "no fresh register: not applied, no failure" (false, [])
    ( report.Fuzz.Oracle.injected,
      List.map (Format.asprintf "%a" Fuzz.Oracle.pp_failure)
        report.Fuzz.Oracle.failures )

let test_shared_oob_rule () =
  (* The shared-memory window rule is what catches an escaped spill: the
     injected out-of-window spill store must be flagged as [Shared_oob],
     naming the run's out-of-bounds count and the baseline's, which
     differ. *)
  let rec go seed =
    if seed > 39 then
      Alcotest.fail "no seed on 0..39 flags oob-spill as shared-oob"
    else
      let _, report = Fuzz.Oracle.test_seed ~inject:Fuzz.Oracle.Oob_spill seed in
      match
        List.find_opt
          (fun f -> f.Fuzz.Oracle.kind = Fuzz.Oracle.Shared_oob)
          report.Fuzz.Oracle.failures
      with
      | Some f when report.Fuzz.Oracle.injected ->
          Scanf.sscanf f.Fuzz.Oracle.detail
            "%_s@: %d out-of-bounds shared accesses vs %d in baseline%!"
            (fun run base ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: %d vs %d out-of-bounds accesses differ"
                   seed run base)
                true (run <> base))
      | Some _ | None -> go (seed + 1)
  in
  go 0

let test_shrink_drop_mov () =
  (* The acceptance loop: a disabled compaction MOV must be caught and the
     counterexample delta-debugged below 20 instructions while still
     failing. *)
  match find_caught_injection Fuzz.Oracle.Drop_mov ~max_seed:79 with
  | None -> Alcotest.fail "drop-mov escaped the oracle on seeds 0..79"
  | Some (case, report) ->
      let kind = (List.hd report.Fuzz.Oracle.failures).Fuzz.Oracle.kind in
      let shrunk = Fuzz.Shrink.minimize ~inject:Fuzz.Oracle.Drop_mov ~kind case in
      let len = Program.length shrunk.Fuzz.Gen.program in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d <= 20 instructions" len)
        true (len <= 20);
      let replay = Fuzz.Oracle.test_case ~inject:Fuzz.Oracle.Drop_mov shrunk in
      Alcotest.(check bool) "shrunk case still fails" true
        (List.exists
           (fun f -> f.Fuzz.Oracle.kind = kind)
           replay.Fuzz.Oracle.failures)

let test_corpus_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "regmutex_fuzz_test_%d" (Unix.getpid ()))
  in
  Alcotest.(check (list int)) "empty corpus" [] (Fuzz.Corpus.load_seeds ~dir);
  Fuzz.Corpus.add_seed ~dir ~seed:17 ~kind:Fuzz.Oracle.Divergence;
  Fuzz.Corpus.add_seed ~dir ~seed:4 ~kind:Fuzz.Oracle.Deadlock;
  Fuzz.Corpus.add_seed ~dir ~seed:17 ~kind:Fuzz.Oracle.Divergence;
  Alcotest.(check (list int)) "seeds persisted, deduplicated" [ 17; 4 ]
    (Fuzz.Corpus.load_seeds ~dir);
  let case = Fuzz.Gen.generate ~seed:17 in
  let path =
    Fuzz.Corpus.write_counterexample ~dir case
      [ { Fuzz.Oracle.kind = Fuzz.Oracle.Divergence; detail = "line one\nline two" } ]
  in
  (* The artifact must replay through the ordinary parser ([parse_file]
     names the program after the file, so parse the text with the
     original name for a structural comparison). *)
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let reparsed = Parser.parse ~name:case.Fuzz.Gen.program.Program.name text in
  Alcotest.check Util.program "artifact parses back to the program"
    case.Fuzz.Gen.program reparsed;
  Sys.readdir dir
  |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Unix.rmdir dir

let suite =
  [ Alcotest.test_case "rng determinism and splitting" `Quick test_rng_determinism;
    Alcotest.test_case "generator determinism" `Quick test_gen_determinism;
    Alcotest.test_case "generator structural guarantees" `Quick test_gen_shapes;
    Alcotest.test_case "parser and codec round-trips" `Quick
      test_roundtrips_over_generated;
    Alcotest.test_case "oracle clean on seeds 0..14" `Slow test_oracle_clean_sweep;
    Alcotest.test_case "deadlock watchdog" `Quick test_deadlock_guard;
    Alcotest.test_case "injected faults are caught" `Slow test_injection_caught;
    Alcotest.test_case "oob-spill is a shared-oob failure" `Slow
      test_shared_oob_rule;
    Alcotest.test_case "drop-mov shrinks below 20 instructions" `Slow
      test_shrink_drop_mov;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "oracle memo counts on seeds 0..14" `Slow test_oracle_memo ]
