open Regmutex
module I = Gpu_isa.Instr
module Program = Gpu_isa.Program

let make body = Program.create ~name:"t" (Array.of_list body)

let messages vs = List.map (fun v -> v.Checker.message) vs

let test_sound_program () =
  let p =
    make
      [ I.Mov (0, I.Imm 1);
        I.Acquire;
        I.Bin (I.Add, 3, I.Reg 0, I.Imm 2);  (* extended def *)
        I.Bin (I.Add, 0, I.Reg 3, I.Imm 1);  (* last use of r3 *)
        I.Release;
        I.Store (I.Global, I.Imm 64, I.Reg 0, 0);
        I.Exit ]
  in
  Alcotest.(check (list string)) "no violations" [] (messages (Checker.check ~bs:2 ~es:2 p))

let test_access_without_acquire () =
  let p =
    make
      [ I.Mov (0, I.Imm 1);
        I.Bin (I.Add, 3, I.Reg 0, I.Imm 2);
        I.Store (I.Global, I.Imm 64, I.Reg 3, 0);
        I.Exit ]
  in
  match Checker.check ~bs:2 ~es:2 p with
  | [] -> Alcotest.fail "expected violations"
  | v :: _ -> Alcotest.(check int) "flagged at def" 1 v.Checker.pc

let test_live_high_after_release () =
  let p =
    make
      [ I.Acquire;
        I.Mov (3, I.Imm 1);
        I.Release;  (* r3 still live here *)
        I.Acquire;
        I.Store (I.Global, I.Imm 64, I.Reg 3, 0);
        I.Release;
        I.Exit ]
  in
  let vs = Checker.check ~bs:2 ~es:2 p in
  Alcotest.(check bool) "release with live extended register flagged" true
    (List.exists (fun v -> v.Checker.pc = 2) vs)

let test_out_of_range () =
  let p =
    make [ I.Acquire; I.Mov (5, I.Imm 1); I.Mov (5, I.Imm 2); I.Release; I.Exit ]
  in
  let vs = Checker.check ~bs:2 ~es:2 p in
  Alcotest.(check bool) "beyond |Bs|+|Es| flagged" true
    (List.exists (fun v -> String.length v.Checker.message > 0 && v.Checker.pc = 1) vs)

let test_path_dependent_state () =
  (* One path acquires, the other does not; the join accesses an extended
     register — must be flagged as path-dependent. *)
  let p =
    make
      [ I.Mov (0, I.Imm 1);               (* 0 *)
        I.Jump_ifz (I.Reg 0, 3);          (* 1: skip the acquire *)
        I.Acquire;                        (* 2 *)
        I.Bin (I.Add, 3, I.Reg 0, I.Imm 1); (* 3: join, extended access *)
        I.Exit ]
  in
  let vs = Checker.check ~bs:2 ~es:2 p in
  Alcotest.(check bool) "join access flagged" true
    (List.exists (fun v -> v.Checker.pc = 3) vs)

let test_idempotent_double_acquire_ok () =
  let p =
    make
      [ I.Acquire; I.Acquire; I.Mov (3, I.Imm 1);
        I.Bin (I.Add, 0, I.Reg 3, I.Imm 0); I.Release; I.Release; I.Exit ]
  in
  Alcotest.(check (list string)) "double primitives fine" []
    (messages (Checker.check ~bs:2 ~es:2 p))

let test_unreachable_ignored () =
  let p =
    make
      [ I.Jump 3;                          (* 0 *)
        I.Mov (3, I.Imm 1);                (* 1: unreachable extended access *)
        I.Jump 3;                          (* 2 *)
        I.Exit ]
  in
  Alcotest.(check (list string)) "unreachable code not flagged" []
    (messages (Checker.check ~bs:2 ~es:2 p))

let test_workload_transforms_sound () =
  (* Every Table I kernel, transformed with its paper split, passes. *)
  List.iter
    (fun spec ->
      let prog = spec.Workloads.Spec.kernel.Gpu_sim.Kernel.program in
      let bs = spec.Workloads.Spec.paper_bs in
      let es = Workloads.Spec.paper_es spec in
      let plan = Transform.apply ~bs ~es prog in
      Alcotest.(check (list string))
        (spec.Workloads.Spec.name ^ " sound")
        []
        (messages (Checker.check ~bs ~es plan.Transform.transformed)))
    Workloads.Registry.all

let test_spans_barrier () =
  let held =
    make
      [ I.Acquire; I.Mov (3, I.Imm 1); I.Bar;
        I.Bin (I.Add, 0, I.Reg 3, I.Imm 0); I.Release; I.Exit ]
  in
  Alcotest.(check bool) "bar inside acquire region" true
    (Checker.acquire_spans_barrier (Gpu_analysis.Facts.of_program held));
  let free =
    make
      [ I.Acquire; I.Mov (3, I.Imm 1);
        I.Bin (I.Add, 0, I.Reg 3, I.Imm 0); I.Release; I.Bar;
        I.Store (I.Global, I.Imm 64, I.Reg 0, 0); I.Exit ]
  in
  Alcotest.(check bool) "bar after release" false
    (Checker.acquire_spans_barrier (Gpu_analysis.Facts.of_program free));
  (* Path-dependent (Top) state must count as spanning: one path reaches
     the barrier holding the set. *)
  let maybe =
    make
      [ I.Mov (0, I.Imm 1);
        I.Jump_ifz (I.Reg 0, 3);
        I.Acquire;
        I.Bar;
        I.Exit ]
  in
  Alcotest.(check bool) "path-dependent holding counts" true
    (Checker.acquire_spans_barrier (Gpu_analysis.Facts.of_program maybe))

let trace key stores : Checker.store_trace = [ (key, stores) ]

let test_diff_traces_equal () =
  let t = trace (0, 1) [ (I.Global, 64, 7); (I.Shared, 3, 9) ] in
  Alcotest.(check (option string)) "identical traces" None
    (Checker.diff_store_traces ~expected:t ~actual:t);
  Alcotest.(check (option string)) "both empty" None
    (Checker.diff_store_traces ~expected:[] ~actual:[])

let test_diff_traces_value () =
  let e = trace (0, 0) [ (I.Global, 64, 7); (I.Global, 65, 8) ] in
  let a = trace (0, 0) [ (I.Global, 64, 7); (I.Global, 65, 9) ] in
  match Checker.diff_store_traces ~expected:e ~actual:a with
  | None -> Alcotest.fail "divergence not reported"
  | Some msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the diverging store" true
        (contains msg "store #1")

let test_diff_traces_shape () =
  let e = trace (0, 0) [ (I.Global, 64, 7) ] in
  (match Checker.diff_store_traces ~expected:e ~actual:[] with
  | Some _ -> ()
  | None -> Alcotest.fail "missing warp not reported");
  (match
     Checker.diff_store_traces ~expected:e
       ~actual:(e @ trace (1, 0) [ (I.Global, 64, 7) ])
   with
  | Some _ -> ()
  | None -> Alcotest.fail "extra warp not reported");
  match
    Checker.diff_store_traces ~expected:e
      ~actual:(trace (0, 0) [ (I.Global, 64, 7); (I.Global, 64, 8) ])
  with
  | Some _ -> ()
  | None -> Alcotest.fail "extra stores not reported"

let suite =
  [ Alcotest.test_case "sound program" `Quick test_sound_program;
    Alcotest.test_case "access without acquire" `Quick test_access_without_acquire;
    Alcotest.test_case "live extended register at release" `Quick test_live_high_after_release;
    Alcotest.test_case "register beyond |Bs|+|Es|" `Quick test_out_of_range;
    Alcotest.test_case "path-dependent acquire state" `Quick test_path_dependent_state;
    Alcotest.test_case "idempotent double primitives" `Quick test_idempotent_double_acquire_ok;
    Alcotest.test_case "unreachable code ignored" `Quick test_unreachable_ignored;
    Alcotest.test_case "all workload transforms are sound" `Quick test_workload_transforms_sound;
    Alcotest.test_case "acquire region spanning a barrier" `Quick test_spans_barrier;
    Alcotest.test_case "trace diff: identical" `Quick test_diff_traces_equal;
    Alcotest.test_case "trace diff: diverging value" `Quick test_diff_traces_value;
    Alcotest.test_case "trace diff: shape mismatches" `Quick test_diff_traces_shape ]
