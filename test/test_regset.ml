open Gpu_isa

let check_set = Alcotest.check Util.regset

let test_empty () =
  Alcotest.(check bool) "empty has no members" true (Regset.is_empty Regset.empty);
  Alcotest.(check int) "cardinal 0" 0 (Regset.cardinal Regset.empty);
  Alcotest.(check (list int)) "to_list" [] (Regset.to_list Regset.empty)

let test_add_remove () =
  let s = Regset.of_list [ 3; 0; 7 ] in
  Alcotest.(check (list int)) "sorted members" [ 0; 3; 7 ] (Regset.to_list s);
  Alcotest.(check bool) "mem 3" true (Regset.mem 3 s);
  Alcotest.(check bool) "not mem 4" false (Regset.mem 4 s);
  check_set "remove" (Regset.of_list [ 0; 7 ]) (Regset.remove 3 s);
  check_set "remove absent is id" s (Regset.remove 12 s);
  check_set "add present is id" s (Regset.add 7 s)

let test_bounds () =
  Alcotest.check_raises "negative index" (Invalid_argument
    "Regset: register index -1 out of [0, 61]") (fun () ->
      ignore (Regset.add (-1) Regset.empty));
  Alcotest.check_raises "index 62" (Invalid_argument
    "Regset: register index 62 out of [0, 61]") (fun () ->
      ignore (Regset.singleton 62));
  (* The maximum index is representable. *)
  Alcotest.(check int) "max_reg member" Regset.max_reg
    (Regset.max_elt (Regset.singleton Regset.max_reg))

let test_set_ops () =
  let a = Regset.of_list [ 1; 2; 3 ] and b = Regset.of_list [ 3; 4 ] in
  check_set "union" (Regset.of_list [ 1; 2; 3; 4 ]) (Regset.union a b);
  check_set "inter" (Regset.singleton 3) (Regset.inter a b);
  check_set "diff" (Regset.of_list [ 1; 2 ]) (Regset.diff a b);
  Alcotest.(check bool) "subset" true (Regset.subset (Regset.singleton 2) a);
  Alcotest.(check bool) "not subset" false (Regset.subset b a)

let test_min_max () =
  let s = Regset.of_list [ 5; 9; 61 ] in
  Alcotest.(check int) "min" 5 (Regset.min_elt s);
  Alcotest.(check int) "max" 61 (Regset.max_elt s);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Regset.min_elt Regset.empty))

let test_above_below () =
  let s = Regset.of_list [ 0; 9; 10; 11; 30 ] in
  check_set "above 10" (Regset.of_list [ 10; 11; 30 ]) (Regset.above 10 s);
  check_set "below 10" (Regset.of_list [ 0; 9 ]) (Regset.below 10 s);
  check_set "above 0 is id" s (Regset.above 0 s);
  check_set "below 62 is id" s (Regset.below 62 s);
  check_set "above+below partition" s
    (Regset.union (Regset.above 10 s) (Regset.below 10 s))

let test_fold_iter () =
  let s = Regset.of_list [ 2; 4; 6 ] in
  Alcotest.(check int) "fold sum" 12 (Regset.fold ( + ) s 0);
  let seen = ref [] in
  Regset.iter (fun r -> seen := r :: !seen) s;
  Alcotest.(check (list int)) "iter ascending" [ 6; 4; 2 ] !seen;
  Alcotest.(check bool) "exists even" true (Regset.exists (fun r -> r mod 2 = 0) s);
  Alcotest.(check bool) "exists odd" false (Regset.exists (fun r -> r mod 2 = 1) s)

let test_pp () =
  Alcotest.(check string) "pp" "{r0, r3}"
    (Format.asprintf "%a" Regset.pp (Regset.of_list [ 0; 3 ]))

(* --- properties -------------------------------------------------------- *)

let gen_set =
  QCheck2.Gen.(map Regset.of_list (list_size (int_bound 20) (int_bound Regset.max_reg)))

let prop_union_cardinal =
  Util.qtest "card(a ∪ b) = card a + card b - card(a ∩ b)"
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Regset.cardinal (Regset.union a b)
      = Regset.cardinal a + Regset.cardinal b - Regset.cardinal (Regset.inter a b))

let prop_diff_disjoint =
  Util.qtest "a \\ b disjoint from b"
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) -> Regset.is_empty (Regset.inter (Regset.diff a b) b))

let prop_roundtrip =
  Util.qtest "of_list (to_list s) = s" gen_set (fun s ->
      Regset.equal s (Regset.of_list (Regset.to_list s)))

let prop_above_below_partition =
  Util.qtest "above/below partition"
    QCheck2.Gen.(pair (int_bound Regset.max_reg) gen_set)
    (fun (n, s) ->
      Regset.equal s (Regset.union (Regset.above n s) (Regset.below n s))
      && Regset.is_empty (Regset.inter (Regset.above n s) (Regset.below n s)))

(* The set-bit walks against a naive reference that tests every index in
   ascending order. The generator forces the empty set and the two edge
   bits (0 and [max_reg]) into the mix. *)
let naive_members s =
  List.filter (fun r -> Regset.mem r s) (List.init (Regset.max_reg + 1) Fun.id)

let gen_edge_set =
  QCheck2.Gen.(
    let* s = gen_set in
    let* lo = bool in
    let* hi = bool in
    let* empty = int_bound 9 in
    let s = if lo then Regset.add 0 s else s in
    let s = if hi then Regset.add Regset.max_reg s else s in
    return (if empty = 0 then Regset.empty else s))

let prop_fold_to_list_reference =
  Util.qtest "fold order and to_list match the naive walk" gen_edge_set
    (fun s ->
      let reference = naive_members s in
      Regset.to_list s = reference
      && List.rev (Regset.fold (fun r acc -> r :: acc) s []) = reference)

let prop_iter_exists_cardinal_reference =
  Util.qtest "iter, exists and cardinal match the naive walk"
    QCheck2.Gen.(pair gen_edge_set (int_bound Regset.max_reg))
    (fun (s, k) ->
      let reference = naive_members s in
      let seen = ref [] in
      Regset.iter (fun r -> seen := r :: !seen) s;
      (* [exists] visits members in ascending order and stops at the
         first hit. *)
      let visited = ref [] in
      let found =
        Regset.exists
          (fun r ->
            visited := r :: !visited;
            r >= k)
          s
      in
      let rec upto_hit = function
        | [] -> []
        | r :: rest -> if r >= k then [ r ] else r :: upto_hit rest
      in
      List.rev !seen = reference
      && found = List.exists (fun r -> r >= k) reference
      && List.rev !visited = upto_hit reference
      && Regset.cardinal s = List.length reference)

let prop_min_max_reference =
  Util.qtest "min_elt and max_elt match the naive walk" gen_edge_set (fun s ->
      match naive_members s with
      | [] ->
          (try ignore (Regset.min_elt s); false with Not_found -> true)
          && (try ignore (Regset.max_elt s); false with Not_found -> true)
      | first :: _ as reference ->
          Regset.min_elt s = first
          && Regset.max_elt s = List.nth reference (List.length reference - 1))

let test_edge_bits () =
  let both = Regset.of_list [ 0; Regset.max_reg ] in
  Alcotest.(check (list int)) "to_list" [ 0; Regset.max_reg ] (Regset.to_list both);
  Alcotest.(check int) "cardinal" 2 (Regset.cardinal both);
  Alcotest.(check int) "min" 0 (Regset.min_elt both);
  Alcotest.(check int) "max" Regset.max_reg (Regset.max_elt both);
  let full = Regset.of_list (List.init (Regset.max_reg + 1) Fun.id) in
  Alcotest.(check int) "full cardinal" (Regset.max_reg + 1) (Regset.cardinal full);
  Alcotest.(check int) "full fold count" (Regset.max_reg + 1)
    (Regset.fold (fun _ n -> n + 1) full 0)

let suite =
  [ Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "above/below" `Quick test_above_below;
    Alcotest.test_case "fold/iter/exists" `Quick test_fold_iter;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    prop_union_cardinal;
    prop_diff_disjoint;
    prop_roundtrip;
    prop_above_below_partition;
    Alcotest.test_case "bits 0 and max_reg" `Quick test_edge_bits;
    prop_fold_to_list_reference;
    prop_iter_exists_cardinal_reference;
    prop_min_max_reference ]
