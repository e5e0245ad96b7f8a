module Trace = Telemetry.Trace

(* Chrome-track layout, per SM process [pid = sm_id]:
     tid 0 .. n_slots-1      one track per warp slot: warp and SRP-hold
                             spans, acquire-stall and barrier-arrive
                             instants
     tid n_slots             "stalls": SM-wide idle episodes, one span per
                             maximal run of fully idle cycles sharing a
                             stall reason
     tid n_slots+1 + slot    one track per resident-CTA slot: CTA spans,
                             launch, retire and barrier-release instants
   plus two counter tracks on the SM process ("srp-in-use",
   "mem-busy-slots") sampled at the issues that change them, so the
   record stream is identical under fast-forward and brute-force
   stepping (skipped cycles issue nothing). *)

type t = {
  trace : Trace.t;
  sm_pid : int;
  n_slots : int;
  (* interned span/counter names *)
  n_warp : int;
  n_hold : int;
  n_cta : int;
  n_cta_launch : int;
  n_cta_retire : int;
  n_acq_stall : int;
  n_bar_arrive : int;
  n_bar_release : int;
  n_srp : int;
  n_mem : int;
  stall_names : int array;  (* indexed like [Stats.all_reasons] *)
  (* open-span state, all keyed by slot; -1 = not open *)
  warp_start : int array;
  warp_cta : int array;
  hold_start : int array;
  hold_section : int array;
  cta_start : int array;
  cta_global : int array;
  (* current idle episode: reason index, first cycle, exclusive end *)
  mutable idle_reason : int;
  mutable idle_start : int;
  mutable idle_until : int;
  (* outstanding memory completions, a FIFO ring: per-SM completion cycles
     are non-decreasing (issue cycles and the DRAM-free horizon both only
     grow), so evicting expired entries from the head keeps the length
     equal to the busy-slot count without scanning the slot array *)
  mem_q : int array;
  mutable mem_head : int;
  mutable mem_len : int;
  mutable mem_last : int;  (* last pushed busy count; repeats are elided *)
}

let reason_index = Stats.reason_index

let create trace ~sm_id ~n_slots ~n_cta_slots ~n_mem_slots =
  Trace.set_process_name trace ~pid:sm_id (Printf.sprintf "SM %d" sm_id);
  for s = 0 to n_slots - 1 do
    Trace.set_thread_name trace ~pid:sm_id ~tid:s (Printf.sprintf "warp slot %d" s)
  done;
  Trace.set_thread_name trace ~pid:sm_id ~tid:n_slots "stalls";
  for c = 0 to n_cta_slots - 1 do
    Trace.set_thread_name trace ~pid:sm_id ~tid:(n_slots + 1 + c)
      (Printf.sprintf "cta slot %d" c)
  done;
  {
    trace;
    sm_pid = sm_id;
    n_slots;
    n_warp = Trace.intern trace "warp";
    n_hold = Trace.intern trace "srp-hold";
    n_cta = Trace.intern trace "cta";
    n_cta_launch = Trace.intern trace "cta-launch";
    n_cta_retire = Trace.intern trace "cta-retire";
    n_acq_stall = Trace.intern trace "acquire-stall";
    n_bar_arrive = Trace.intern trace "barrier-arrive";
    n_bar_release = Trace.intern trace "barrier-release";
    n_srp = Trace.intern trace "srp-in-use";
    n_mem = Trace.intern trace "mem-busy-slots";
    stall_names =
      Array.of_list
        (List.map
           (fun r -> Trace.intern trace ("stall:" ^ Stats.reason_name r))
           Stats.all_reasons);
    warp_start = Array.make (max n_slots 1) (-1);
    warp_cta = Array.make (max n_slots 1) (-1);
    hold_start = Array.make (max n_slots 1) (-1);
    hold_section = Array.make (max n_slots 1) (-1);
    cta_start = Array.make (max n_cta_slots 1) (-1);
    cta_global = Array.make (max n_cta_slots 1) (-1);
    idle_reason = -1;
    idle_start = 0;
    idle_until = 0;
    mem_q = Array.make (max n_mem_slots 1 + 1) 0;
    mem_head = 0;
    mem_len = 0;
    mem_last = -1;
  }

(* --- CTA and warp lifetime --------------------------------------------- *)

let cta_launch t ~cycle ~cta_slot ~global_cta =
  t.cta_start.(cta_slot) <- cycle;
  t.cta_global.(cta_slot) <- global_cta;
  Trace.instant t.trace ~ts:cycle ~pid:t.sm_pid ~tid:(t.n_slots + 1 + cta_slot)
    ~name:t.n_cta_launch ~arg:global_cta

let cta_retire t ~cycle ~cta_slot =
  let start = t.cta_start.(cta_slot) in
  if start >= 0 then begin
    Trace.span t.trace ~ts:start ~dur:(cycle - start) ~pid:t.sm_pid
      ~tid:(t.n_slots + 1 + cta_slot) ~name:t.n_cta ~arg:t.cta_global.(cta_slot);
    Trace.instant t.trace ~ts:cycle ~pid:t.sm_pid ~tid:(t.n_slots + 1 + cta_slot)
      ~name:t.n_cta_retire ~arg:t.cta_global.(cta_slot);
    t.cta_start.(cta_slot) <- -1
  end

let warp_start t ~cycle ~slot ~global_cta =
  t.warp_start.(slot) <- cycle;
  t.warp_cta.(slot) <- global_cta

let warp_close t ~cycle ~slot =
  let start = t.warp_start.(slot) in
  if start >= 0 then begin
    Trace.span t.trace ~ts:start ~dur:(cycle - start) ~pid:t.sm_pid ~tid:slot
      ~name:t.n_warp ~arg:t.warp_cta.(slot);
    t.warp_start.(slot) <- -1
  end

(* --- acquire stalls and barriers ---------------------------------------- *)

let acquire_stall t ~cycle ~slot ~global_cta =
  Trace.instant t.trace ~ts:cycle ~pid:t.sm_pid ~tid:slot ~name:t.n_acq_stall
    ~arg:global_cta

let barrier_arrive t ~cycle ~slot ~global_cta =
  Trace.instant t.trace ~ts:cycle ~pid:t.sm_pid ~tid:slot ~name:t.n_bar_arrive
    ~arg:global_cta

let barrier_release t ~cycle ~cta_slot ~global_cta =
  Trace.instant t.trace ~ts:cycle ~pid:t.sm_pid ~tid:(t.n_slots + 1 + cta_slot)
    ~name:t.n_bar_release ~arg:global_cta

(* --- SRP holds and occupancy ------------------------------------------- *)

let hold_begin t ~cycle ~slot ~section =
  t.hold_start.(slot) <- cycle;
  t.hold_section.(slot) <- section

let hold_end t ~cycle ~slot =
  let start = t.hold_start.(slot) in
  if start >= 0 then begin
    Trace.span t.trace ~ts:start ~dur:(cycle - start) ~pid:t.sm_pid ~tid:slot
      ~name:t.n_hold ~arg:t.hold_section.(slot);
    t.hold_start.(slot) <- -1
  end

let srp_sample t ~cycle ~in_use =
  Trace.counter t.trace ~ts:cycle ~pid:t.sm_pid ~name:t.n_srp ~value:in_use

let mem_issue t ~cycle ~completion =
  let cap = Array.length t.mem_q in
  while t.mem_len > 0 && t.mem_q.(t.mem_head) <= cycle do
    t.mem_head <- (t.mem_head + 1) mod cap;
    t.mem_len <- t.mem_len - 1
  done;
  t.mem_q.((t.mem_head + t.mem_len) mod cap) <- completion;
  t.mem_len <- t.mem_len + 1;
  (* Chrome counter tracks hold their value until the next sample, so a
     repeat of the previous count carries no information — eliding it
     costs nothing visually and is the bulk of the record volume on
     memory-bound kernels (steady state: one completes, one issues). *)
  if t.mem_len <> t.mem_last then begin
    t.mem_last <- t.mem_len;
    Trace.counter t.trace ~ts:cycle ~pid:t.sm_pid ~name:t.n_mem ~value:t.mem_len
  end

(* --- idle (stall) episodes --------------------------------------------- *)

(* Episodes are extended cycle by cycle at visited cycles and in bulk over
   fast-forwarded spans; a frozen machine cannot change its classification
   mid-span (the wakeup bound is exactly where it could change), so both
   modes close identical spans at identical points. *)

let flush_idle t =
  if t.idle_reason >= 0 then begin
    Trace.span t.trace ~ts:t.idle_start ~dur:(t.idle_until - t.idle_start)
      ~pid:t.sm_pid ~tid:t.n_slots ~name:t.stall_names.(t.idle_reason)
      ~arg:Trace.no_arg;
    t.idle_reason <- -1
  end

let note_idle t ~cycle ~reason =
  let r = reason_index reason in
  if t.idle_reason = r && t.idle_until = cycle then t.idle_until <- cycle + 1
  else begin
    flush_idle t;
    t.idle_reason <- r;
    t.idle_start <- cycle;
    t.idle_until <- cycle + 1
  end

let note_idle_span t ~from ~span ~reason =
  let r = reason_index reason in
  if t.idle_reason = r && t.idle_until = from then t.idle_until <- from + span
  else begin
    flush_idle t;
    t.idle_reason <- r;
    t.idle_start <- from;
    t.idle_until <- from + span
  end

(* --- end of run -------------------------------------------------------- *)

(* Close whatever is still open (timed-out or deadlock-free-but-incomplete
   runs leave live warps) so the exported trace has no dangling state. *)
let finalize t ~cycle =
  flush_idle t;
  for slot = 0 to Array.length t.hold_start - 1 do
    hold_end t ~cycle ~slot
  done;
  for slot = 0 to Array.length t.warp_start - 1 do
    warp_close t ~cycle ~slot
  done;
  for cta_slot = 0 to Array.length t.cta_start - 1 do
    let start = t.cta_start.(cta_slot) in
    if start >= 0 then begin
      Trace.span t.trace ~ts:start ~dur:(cycle - start) ~pid:t.sm_pid
        ~tid:(t.n_slots + 1 + cta_slot) ~name:t.n_cta ~arg:t.cta_global.(cta_slot);
      t.cta_start.(cta_slot) <- -1
    end
  done
