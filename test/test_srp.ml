open Gpu_uarch

let test_acquire_release () =
  let srp = Srp.create ~n_warps:48 ~sections:2 in
  Alcotest.(check int) "sections" 2 (Srp.n_sections srp);
  (match Srp.acquire srp ~warp:5 with
  | Srp.Granted 0 -> ()
  | _ -> Alcotest.fail "expected first section");
  Alcotest.(check (option int)) "holds" (Some 0) (Srp.holds srp ~warp:5);
  Alcotest.(check int) "free" 1 (Srp.free_sections srp);
  (match Srp.release srp ~warp:5 with
  | Srp.Released 0 -> ()
  | _ -> Alcotest.fail "expected release of section 0");
  Alcotest.(check int) "all free" 2 (Srp.free_sections srp)

let test_idempotency () =
  let srp = Srp.create ~n_warps:48 ~sections:2 in
  (match Srp.acquire srp ~warp:1 with Srp.Granted _ -> () | _ -> Alcotest.fail "grant");
  (* Nested acquire has no effect. *)
  (match Srp.acquire srp ~warp:1 with
  | Srp.Already_held 0 -> ()
  | _ -> Alcotest.fail "expected Already_held");
  Alcotest.(check int) "still one in use" 1 (Srp.in_use srp);
  (* Release without holding is a no-op. *)
  (match Srp.release srp ~warp:7 with
  | Srp.Not_held -> ()
  | _ -> Alcotest.fail "expected Not_held");
  Alcotest.(check int) "unchanged" 1 (Srp.in_use srp)

let test_stall_and_retry () =
  let srp = Srp.create ~n_warps:48 ~sections:1 in
  (match Srp.acquire srp ~warp:0 with Srp.Granted 0 -> () | _ -> Alcotest.fail "grant");
  (match Srp.acquire srp ~warp:1 with Srp.Stall -> () | _ -> Alcotest.fail "stall");
  (match Srp.release srp ~warp:0 with Srp.Released 0 -> () | _ -> Alcotest.fail "rel");
  (match Srp.acquire srp ~warp:1 with
  | Srp.Granted 0 -> ()
  | _ -> Alcotest.fail "retry succeeds")

let test_reset_warp () =
  let srp = Srp.create ~n_warps:48 ~sections:2 in
  ignore (Srp.acquire srp ~warp:3);
  Alcotest.(check (option int)) "reset frees" (Some 0) (Srp.reset_warp srp ~warp:3);
  Alcotest.(check (option int)) "reset of clean warp" None (Srp.reset_warp srp ~warp:3)

let test_distinct_sections () =
  let srp = Srp.create ~n_warps:48 ~sections:3 in
  let grant w =
    match Srp.acquire srp ~warp:w with Srp.Granted s -> s | _ -> Alcotest.fail "grant"
  in
  let s = List.map grant [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "distinct FFZ order" [ 0; 1; 2 ] s;
  (match Srp.acquire srp ~warp:40 with Srp.Stall -> () | _ -> Alcotest.fail "full");
  ignore (Srp.release srp ~warp:20);
  Alcotest.(check int) "freed middle section" 1 (grant 40)

let test_create_invalid () =
  Alcotest.check_raises "too many sections"
    (Invalid_argument "Srp.create: more sections than warps") (fun () ->
      ignore (Srp.create ~n_warps:4 ~sections:5))

(* --- paired specialization ------------------------------------------- *)

let test_paired_basic () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:24 in
  Alcotest.(check int) "pairs" 24 (Srp_paired.n_pairs p);
  (match Srp_paired.acquire p ~warp:4 with
  | Srp_paired.Granted -> ()
  | _ -> Alcotest.fail "grant");
  (* Partner (warp 5) must stall; unrelated warp 6 gets its own pair. *)
  (match Srp_paired.acquire p ~warp:5 with
  | Srp_paired.Stall -> ()
  | _ -> Alcotest.fail "partner stalls");
  (match Srp_paired.acquire p ~warp:6 with
  | Srp_paired.Granted -> ()
  | _ -> Alcotest.fail "other pair free");
  (match Srp_paired.release p ~warp:4 with
  | Srp_paired.Released -> ()
  | _ -> Alcotest.fail "release");
  (match Srp_paired.acquire p ~warp:5 with
  | Srp_paired.Granted -> ()
  | _ -> Alcotest.fail "partner acquires after release")

let test_paired_idempotent () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:24 in
  ignore (Srp_paired.acquire p ~warp:0);
  (match Srp_paired.acquire p ~warp:0 with
  | Srp_paired.Already_held -> ()
  | _ -> Alcotest.fail "nested acquire no-op");
  (match Srp_paired.release p ~warp:1 with
  | Srp_paired.Not_held -> ()
  | _ -> Alcotest.fail "partner cannot release for me");
  Alcotest.(check bool) "still held" true (Srp_paired.holds p ~warp:0)

let test_paired_disabled_pairs () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:2 in
  (match Srp_paired.acquire p ~warp:10 with
  | Srp_paired.Stall -> ()
  | _ -> Alcotest.fail "disabled pair always stalls")

let test_paired_reset () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:24 in
  ignore (Srp_paired.acquire p ~warp:9);
  Alcotest.(check bool) "reset frees" true (Srp_paired.reset_warp p ~warp:9);
  Alcotest.(check bool) "idempotent" false (Srp_paired.reset_warp p ~warp:9)

(* Property: after any operation sequence, in_use equals the number of
   warps holding a section, and no section is shared. *)
let prop_srp_consistency =
  let gen =
    QCheck2.Gen.(list_size (int_bound 200) (pair bool (int_bound 47)))
  in
  Util.qtest "in_use matches holders after random ops" gen (fun ops ->
      let srp = Srp.create ~n_warps:48 ~sections:7 in
      List.iter
        (fun (acq, w) ->
          if acq then ignore (Srp.acquire srp ~warp:w)
          else ignore (Srp.release srp ~warp:w))
        ops;
      let holders = ref [] in
      for w = 0 to 47 do
        match Srp.holds srp ~warp:w with
        | Some s -> holders := s :: !holders
        | None -> ()
      done;
      let sections = List.sort compare !holders in
      List.length sections = Srp.in_use srp
      && List.length (List.sort_uniq compare sections) = List.length sections
      && Srp.free_sections srp = 7 - List.length sections)

(* Property: [consistent] holds and sections are conserved after every
   step of a random acquire / release / reset_warp sequence, over random
   warp and section counts (including zero sections). *)
let prop_srp_consistent_every_step =
  let gen =
    QCheck2.Gen.(
      let* n_warps = int_range 1 61 in
      let* sections = int_range 0 n_warps in
      let* ops = list_size (int_bound 150) (pair (int_bound 2) (int_bound (n_warps - 1))) in
      return (n_warps, sections, ops))
  in
  Util.qtest "consistent and conserved after every op" gen
    (fun (n_warps, sections, ops) ->
      let srp = Srp.create ~n_warps ~sections in
      let ok () =
        Srp.consistent srp
        && Srp.in_use srp + Srp.free_sections srp = Srp.n_sections srp
      in
      ok ()
      && List.for_all
           (fun (op, warp) ->
             (match op with
             | 0 -> ignore (Srp.acquire srp ~warp)
             | 1 -> ignore (Srp.release srp ~warp)
             | _ -> ignore (Srp.reset_warp srp ~warp));
             ok ())
           ops)

let suite =
  [ Alcotest.test_case "acquire/release" `Quick test_acquire_release;
    Alcotest.test_case "idempotency" `Quick test_idempotency;
    Alcotest.test_case "stall and retry" `Quick test_stall_and_retry;
    Alcotest.test_case "reset on warp exit" `Quick test_reset_warp;
    Alcotest.test_case "distinct sections, FFZ reuse" `Quick test_distinct_sections;
    Alcotest.test_case "invalid creation" `Quick test_create_invalid;
    Alcotest.test_case "paired: basics" `Quick test_paired_basic;
    Alcotest.test_case "paired: idempotency" `Quick test_paired_idempotent;
    Alcotest.test_case "paired: disabled pairs" `Quick test_paired_disabled_pairs;
    Alcotest.test_case "paired: reset" `Quick test_paired_reset;
    prop_srp_consistency;
    prop_srp_consistent_every_step ]
