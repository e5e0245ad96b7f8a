(* The simulator's event stream, read off the telemetry sink: CTA
   lifecycle, SRP holds and barrier traffic on the tracks the probe
   documents. *)

open Gpu_sim
module B = Gpu_isa.Builder
module I = Gpu_isa.Instr
module Trace = Telemetry.Trace

let srp_kernel =
  B.(
    assemble ~name:"ev"
      ([ mul 0 ctaid ntid; add 0 (r 0) tid; mov 1 (imm 0) ]
      @ Workloads.Shape.counted_loop ~ctr:2 ~trips:(imm 2) ~name:"l"
          [ acquire; add 3 (r 0) (imm 1); add 4 (r 3) (r 1); add 1 (r 3) (r 4); release ]
      @ [ bar;
          store ~ofs:0x10000000 I.Global (r 0) (r 1); exit_ ]))

let run_with_sink ?(policy = Policy.Srp { bs = 3; es = 2; verify = true }) () =
  let sink = Telemetry.Sink.create () in
  let kernel = Kernel.make ~name:"ev" ~grid_ctas:2 ~cta_threads:64 srp_kernel in
  let config =
    { (Gpu.default_config Util.small_arch policy) with Gpu.telemetry = Some sink }
  in
  let stats = Gpu.run config kernel in
  (Util.records sink, stats)

let test_lifecycle_events () =
  let rs, stats = run_with_sink () in
  let count name = List.length (Util.named name rs) in
  Alcotest.(check int) "2 launches" 2 (count "cta-launch");
  Alcotest.(check int) "2 retirements" 2 (count "cta-retire");
  Alcotest.(check int) "2 CTA lifetimes" 2 (count "cta");
  Alcotest.(check int) "4 warp exits" 4 (count "warp");
  (* 4 warps x 2 loop iterations of acquire/release: one hold span each,
     closed by its release. *)
  Alcotest.(check int) "8 holds" 8 (count "srp-hold");
  Alcotest.(check int) "8 acquires" 8 stats.Stats.acquire_execs;
  Alcotest.(check int) "8 releases" 8 stats.Stats.release_execs;
  Alcotest.(check int) "4 barrier arrivals" 4 (count "barrier-arrive");
  Alcotest.(check int) "2 barrier releases" 2 (count "barrier-release")

let test_event_ordering () =
  let rs, _ = run_with_sink () in
  (* Warp slot 0: its holds are disjoint and in order, and each hold and
     barrier arrival lies within the lifetime of a warp the slot hosted. *)
  let on_slot0 = List.filter (fun r -> r.Trace.pid = 0 && r.Trace.tid = 0) rs in
  let holds = Util.named "srp-hold" on_slot0 in
  Alcotest.(check bool) "slot holds" true (holds <> []);
  ignore
    (List.fold_left
       (fun free_from h ->
         Alcotest.(check bool) "holds disjoint and in order" true
           (h.Trace.ts >= free_from);
         h.Trace.ts + h.Trace.dur)
       0 holds);
  let warps = Util.named "warp" on_slot0 in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Trace.name ^ " within a warp's life") true
        (List.exists
           (fun w ->
             r.Trace.ts >= w.Trace.ts
             && r.Trace.ts + r.Trace.dur <= w.Trace.ts + w.Trace.dur)
           warps))
    (holds @ Util.named "barrier-arrive" on_slot0);
  (* Launch precedes every other record; retire is last. *)
  (match rs with
  | { Trace.name = "cta-launch"; _ } :: _ -> ()
  | _ -> Alcotest.fail "first record must be a launch");
  match List.rev rs with
  | { Trace.name = "cta-retire"; _ } :: _ -> ()
  | _ -> Alcotest.fail "last record must be a retirement"

let suite =
  [ Alcotest.test_case "lifecycle events" `Quick test_lifecycle_events;
    Alcotest.test_case "ordering invariants" `Quick test_event_ordering ]
