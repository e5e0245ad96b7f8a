open Gpu_isa.Builder
module Arch_config = Gpu_uarch.Arch_config

(* One warp per CTA, 31 registers per thread: a base phase, an extended
   phase (the pressure bulge), and a closing base phase. *)
let program =
  assemble ~name:"fig2"
    ([ mov 0 tid; mov 1 (imm 0); mul 2 (r 0) (imm 4) ]
    @ Workloads.Shape.counted_loop ~ctr:3 ~trips:(imm 4) ~name:"warmup"
        ([ load Gpu_isa.Instr.Global 4 (r 2) ]
        @ Workloads.Shape.alu_chain ~regs:[ 5; 6; 7; 8; 9; 10; 11 ] ~len:21 ~seed:(r 4)
        @ [ add 2 (r 2) (imm 4) ])
    @ [ add 12 (r 11) (r 4) ]
    @ Workloads.Shape.bulge ~seed:12 ~acc:1 ~first:13 ~last:30 ~hold:40 ()
    @ Workloads.Shape.counted_loop ~ctr:3 ~trips:(imm 4) ~name:"cooldown"
        (Workloads.Shape.alu_chain ~regs:[ 5; 6; 7; 8; 9; 10; 11 ] ~len:21 ~seed:(r 1))
    @ [ store ~ofs:0x10000000 Gpu_isa.Instr.Global (r 0) (r 1); exit_ ])

(* A 48-registers-per-thread machine hosting at most two warps. *)
let machine =
  {
    Arch_config.gtx480 with
    name = "fig2-machine";
    n_sms = 1;
    regfile_regs = 48 * 32;
    max_warps = 2;
    max_ctas = 2;
    max_threads = 64;
    n_schedulers = 1;
    reg_alloc_gran = 1;
  }

type result = {
  baseline_cycles : int;
  regmutex_cycles : int;
  baseline_timeline : int array;
  regmutex_timeline : int array;
}

let buckets = 64

(* One run of [compile program] under [policy], with the SM's allocated
   registers sampled every cycle by [allocated_of] and averaged into
   [buckets]. The key names the compile inputs, as cell keys do: the
   source kernel and the run config, whose policy carries |Bs| and |Es|.
   So a store hit compiles nothing; the store's version tag moves with
   any compiler change. *)
let run_one ~label policy ~compile allocated_of =
  let kernel = Gpu_sim.Kernel.make ~name:"fig2" ~grid_ctas:2 ~cta_threads:32 program in
  let config = Gpu_sim.Gpu.default_config machine policy in
  let key =
    Printf.sprintf "fig2/%s/%s" label (Engine.input_digest config kernel)
  in
  Engine.memo ~key (fun () ->
      let samples = ref [] in
      let observe ~cycle:_ sms = samples := allocated_of sms.(0) :: !samples in
      let compiled = Gpu_sim.Kernel.with_program kernel (compile program) in
      let stats = Gpu_sim.Gpu.run ~observe config compiled in
      let samples = Array.of_list (List.rev !samples) in
      let n = Array.length samples in
      let timeline =
        Array.init buckets (fun b ->
            let lo = b * n / buckets in
            let hi = max ((b + 1) * n / buckets) (lo + 1) in
            let sum = ref 0 in
            for i = lo to min (hi - 1) (n - 1) do
              sum := !sum + samples.(i)
            done;
            !sum / max 1 (min hi n - lo))
      in
      (stats.Gpu_sim.Stats.cycles, timeline))

let run () =
  let baseline_cycles, baseline_timeline =
    run_one ~label:"baseline"
      (Gpu_sim.Policy.Static { regs_per_thread = 31 })
      ~compile:Fun.id
      (fun sm -> Gpu_sim.Sm.resident_warps sm * 31)
  in
  let regmutex_cycles, regmutex_timeline =
    run_one ~label:"regmutex"
      (Gpu_sim.Policy.Srp { bs = 16; es = 16; verify = true })
      ~compile:(fun p ->
        (Regmutex.Transform.apply ~bs:16 ~es:16 p).Regmutex.Transform.transformed)
      (fun sm -> (Gpu_sim.Sm.resident_warps sm * 16) + (Gpu_sim.Sm.srp_in_use sm * 16))
  in
  { baseline_cycles; regmutex_cycles; baseline_timeline; regmutex_timeline }

let bar_chart timeline =
  let levels = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  String.init (Array.length timeline) (fun i ->
      let v = timeline.(i) in
      let idx = v * (Array.length levels - 1) / 48 in
      levels.(max 0 (min (Array.length levels - 1) idx)))

let print _cfg =
  let r = run () in
  print_endline "Figure 2: two warps, 48 registers/thread machine, kernel needs 31";
  Printf.printf "baseline: %d cycles (warps serialize: 2 x 31 = 62 > 48)\n"
    r.baseline_cycles;
  Printf.printf "regmutex: %d cycles (|Bs|=16 overlap, |Es|=16 time-shared)\n"
    r.regmutex_cycles;
  Printf.printf "register allocation over time (48 = full file):\n";
  Printf.printf "  baseline |%s|\n" (bar_chart r.baseline_timeline);
  Printf.printf "  regmutex |%s|\n" (bar_chart r.regmutex_timeline);
  Printf.printf "speedup: %.2fx\n"
    (float_of_int r.baseline_cycles /. float_of_int (max 1 r.regmutex_cycles))
