type run_config = {
  arch : Gpu_uarch.Arch_config.t;
  policy : Policy.t;
  record_stores : bool;
  trace_warp0 : bool;
  max_cycles : int;
  telemetry : Telemetry.Trace.t option;
  fast_forward : bool;
  simt : bool;
  lane_resolved : bool;
}

let default_config arch policy =
  { arch; policy; record_stores = false; trace_warp0 = false;
    max_cycles = 20_000_000; telemetry = None;
    fast_forward = true; simt = false; lane_resolved = false }

type sm_diag = {
  dl_sm : int;
  dl_srp_in_use : int;
  dl_srp_sections : int;
  dl_warps : Sm.warp_diag list;
}

type deadlock_info = {
  dl_cycle : int;
  dl_pending_ctas : int;
  dl_grid_ctas : int;
  dl_retired : int;
  dl_sms : sm_diag list;
}

exception Deadlock of deadlock_info

let pp_deadlock ppf d =
  Format.fprintf ppf
    "@[<v>deadlock at cycle %d: no warp can issue, no wakeup exists, %d/%d \
     CTAs retired (%d never launched)"
    d.dl_cycle d.dl_retired d.dl_grid_ctas d.dl_pending_ctas;
  List.iter
    (fun sm ->
      if sm.dl_warps <> [] then begin
        Format.fprintf ppf "@,  SM %d: %d/%d SRP sections in use" sm.dl_sm
          sm.dl_srp_in_use sm.dl_srp_sections;
        List.iter
          (fun w -> Format.fprintf ppf "@,    %a" Sm.pp_warp_diag w)
          sm.dl_warps
      end)
    d.dl_sms;
  Format.fprintf ppf "@]"

let () =
  Printexc.register_printer (function
    | Deadlock d -> Some (Format.asprintf "Gpu.Deadlock: %a" pp_deadlock d)
    | _ -> None)

let build_sms config kernel stats memory mem_sys =
  let tables =
    Sm.tables ~simt:config.simt config.arch ~policy:config.policy ~kernel
  in
  Array.init config.arch.Gpu_uarch.Arch_config.n_sms (fun sm_id ->
      Sm.create ?telemetry:config.telemetry ~lane_resolved:config.lane_resolved
        tables ~sm_id ~memory ~mem_sys ~stats ~record_stores:config.record_stores
        ~trace_warp0:(config.trace_warp0 && sm_id = 0))

(* The telemetry ring drops its oldest records silently once full.
   Surface the loss once, at run end. *)
let warn_dropped trace =
  if Telemetry.Trace.dropped trace > 0 then
    Format.eprintf
      "warning: telemetry ring dropped %d oldest records (capacity %d); \
       the exported trace is the most recent window@."
      (Telemetry.Trace.dropped trace) (Telemetry.Trace.capacity trace)

let run ?observe ?(observe_every = 1) config kernel =
  if observe_every < 1 then invalid_arg "Gpu.run: observe_every must be >= 1";
  let stats =
    Stats.create
      ~warps:(kernel.Kernel.grid_ctas * Kernel.warps_per_cta config.arch kernel)
      ()
  in
  let memory = Memory.create () in
  let arch = config.arch in
  let mem_sys = Mem_system.create arch ~n_sms:arch.Gpu_uarch.Arch_config.n_sms in
  let sms = build_sms config kernel stats memory mem_sys in
  if Array.exists (fun sm -> Sm.cta_capacity sm = 0) sms then
    invalid_arg "Gpu.run: kernel exceeds SM resources (zero occupancy)";
  let grid = kernel.Kernel.grid_ctas in
  let n_sms = Array.length sms in
  (* The GPU driver gets its own trace process above the SMs: fast-forward
     jump spans land there. *)
  let ff_name =
    match config.telemetry with
    | Some tr ->
        Telemetry.Trace.set_process_name tr ~pid:n_sms "GPU";
        Telemetry.Trace.set_thread_name tr ~pid:n_sms ~tid:0 "fast-forward";
        Telemetry.Trace.intern tr "fast-forward"
    | None -> 0
  in
  let capacity_per_cycle = arch.Gpu_uarch.Arch_config.max_warps * n_sms in
  let next_cta = ref 0 in
  let cycle = ref 0 in
  (* Per-SM idle reason of the current frozen cycle. *)
  let reasons = Array.make n_sms Stats.Stall_empty in
  (* Brute-force stepping: the wakeup of the current frozen span, 0 when
     the last cycle was not frozen. *)
  let span_wake = ref 0 in
  (* Grid completion reads the retirement counter the SMs maintain (every
     retire bumps [ctas_retired]) instead of re-folding over the SMs each
     cycle. *)
  let retired () = stats.Stats.ctas_retired in
  while retired () < grid && !cycle < config.max_cycles do
    (* CTA dispatch: at most one launch per SM per cycle, round robin over
       SMs so early SMs do not monopolise the grid. The per-SM loops are
       plain [for]s: closures here would be allocated every simulated
       cycle. *)
    for i = 0 to n_sms - 1 do
      if !next_cta < grid && Sm.try_launch sms.(i) ~global_cta:!next_cta ~cycle:!cycle
      then incr next_cta
    done;
    let instrs_before = stats.Stats.instructions in
    for i = 0 to n_sms - 1 do
      Sm.step sms.(i) ~cycle:!cycle
    done;
    (match observe with
    | Some f when !cycle mod observe_every = 0 -> f ~cycle:!cycle sms
    | Some _ | None -> ());
    let resident = ref 0 in
    for i = 0 to n_sms - 1 do
      resident := !resident + Sm.resident_warps sms.(i)
    done;
    let resident = !resident in
    stats.Stats.resident_warp_cycles <- stats.Stats.resident_warp_cycles + resident;
    stats.Stats.warp_capacity_cycles <-
      stats.Stats.warp_capacity_cycles + capacity_per_cycle;
    (* Event-driven fast-forward: when no instruction issued anywhere this
       cycle and no SM could place a CTA next cycle, the machine state is
       frozen until the earliest wakeup — the next scoreboard or memory-slot
       completion. Every cycle in between would only repeat this cycle's
       idle bookkeeping, so the clock jumps straight to the wakeup and the
       per-cycle statistics (stall attribution, occupancy integrals) are
       accounted in bulk for the skipped span. Bit-identical to stepping:
       nothing observable happens in the span, and [observe ~observe_every]
       bounds the jump so sampled cycles are still visited. *)
    let next = !cycle + 1 in
    (* A cycle is frozen when no instruction issued anywhere and no SM
       could place a CTA next cycle: the machine state can only change at
       a future wakeup. Frozen cycles feed two consumers: the fast-forward
       jump, and the no-progress guard — if no wakeup exists either
       (every stalled warp waits on another warp's issue, which frozen-ness
       rules out forever) the run can never terminate, so it raises a
       structured [Deadlock] instead of spinning (or jumping) to the
       watchdog. Both modes see the same first frozen cycle, so detection
       is mode-independent. Brute-force stepping summarises a frozen span
       once: nothing can change before the wakeup its first cycle found,
       so the later cycles below it skip the per-SM summary. *)
    let frozen =
      stats.Stats.instructions = instrs_before
      && retired () < grid
      && not (!next_cta < grid && Array.exists Sm.can_launch sms)
    in
    if not frozen then span_wake := 0;
    if frozen && (config.fast_forward || !cycle >= !span_wake) then begin
      let wake = ref max_int in
      for i = 0 to n_sms - 1 do
        let sm = sms.(i) in
        if Sm.resident_warps sm > 0 then begin
          let reason, sm_wake = Sm.idle_summary sm ~cycle:!cycle in
          reasons.(i) <- reason;
          if sm_wake < !wake then wake := sm_wake
        end
        else reasons.(i) <- Stats.Stall_empty
      done;
      if !wake = max_int then
        raise
          (Deadlock
             {
               dl_cycle = !cycle;
               dl_pending_ctas = grid - !next_cta;
               dl_grid_ctas = grid;
               dl_retired = retired ();
               dl_sms =
                 Array.to_list
                   (Array.mapi
                      (fun i sm ->
                        {
                          dl_sm = i;
                          dl_srp_in_use = Sm.srp_in_use sm;
                          dl_srp_sections = Sm.srp_sections sm;
                          dl_warps = Sm.diagnose sm ~cycle:!cycle;
                        })
                      sms);
             });
      span_wake := !wake;
      if config.fast_forward then begin
        let wake = min !wake config.max_cycles in
        let wake =
          match observe with
          | Some _ -> min wake (((!cycle / observe_every) + 1) * observe_every)
          | None -> wake
        in
        if wake > next then begin
          let span = wake - next in
          for i = 0 to n_sms - 1 do
            Sm.account_idle_span sms.(i) ~from:next ~reason:reasons.(i) ~span
          done;
          (match config.telemetry with
          | Some tr ->
              Telemetry.Trace.span tr ~ts:next ~dur:span
                ~pid:n_sms ~tid:0 ~name:ff_name ~arg:span
          | None -> ());
          stats.Stats.resident_warp_cycles <-
            stats.Stats.resident_warp_cycles + (span * resident);
          stats.Stats.warp_capacity_cycles <-
            stats.Stats.warp_capacity_cycles + (span * capacity_per_cycle);
          cycle := wake
        end
        else cycle := next
      end
      else cycle := next
    end
    else cycle := next
  done;
  stats.Stats.cycles <- !cycle;
  stats.Stats.timed_out <- retired () < grid;
  (match config.telemetry with
  | Some tr ->
      Array.iter (fun sm -> Sm.finalize_probe sm ~cycle:!cycle) sms;
      warn_dropped tr
  | None -> ());
  stats

let theoretical_warps { arch; policy; _ } kernel =
  (* Rejects the policy/kernel pairs [Sm.create] rejects. *)
  ignore (Sm.srp_sections_for arch ~policy ~kernel);
  Sm.cta_capacity_for arch ~policy ~kernel * Kernel.warps_per_cta arch kernel

let srp_sections_of { arch; policy; _ } kernel =
  Sm.srp_sections_for arch ~policy ~kernel
