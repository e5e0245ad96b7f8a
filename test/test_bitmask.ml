open Gpu_uarch

let test_create () =
  let m = Bitmask.create ~width:48 ~valid:26 in
  Alcotest.(check int) "width" 48 (Bitmask.width m);
  Alcotest.(check int) "valid" 26 (Bitmask.valid m);
  Alcotest.(check bool) "usable bit clear" false (Bitmask.test m 0);
  Alcotest.(check bool) "padding bit preset" true (Bitmask.test m 26);
  Alcotest.(check bool) "last padding bit" true (Bitmask.test m 47);
  Alcotest.(check int) "popcount counts usable only" 0 (Bitmask.popcount m)

let test_set_clear () =
  let m = Bitmask.create ~width:8 ~valid:8 in
  Bitmask.set m 3;
  Alcotest.(check bool) "set" true (Bitmask.test m 3);
  Alcotest.(check int) "popcount" 1 (Bitmask.popcount m);
  Bitmask.clear m 3;
  Alcotest.(check bool) "cleared" false (Bitmask.test m 3)

let test_ffz () =
  let m = Bitmask.create ~width:4 ~valid:4 in
  Alcotest.(check (option int)) "first zero" (Some 0) (Bitmask.ffz m);
  Bitmask.set m 0;
  Bitmask.set m 1;
  Alcotest.(check (option int)) "skips set bits" (Some 2) (Bitmask.ffz m);
  Bitmask.set m 2;
  Bitmask.set m 3;
  Alcotest.(check (option int)) "full" None (Bitmask.ffz m)

let test_ffz_respects_valid () =
  let m = Bitmask.create ~width:8 ~valid:2 in
  Bitmask.set m 0;
  Bitmask.set m 1;
  (* Bits 2..7 are permanently set; FFZ must not return them. *)
  Alcotest.(check (option int)) "no section available" None (Bitmask.ffz m)

let test_errors () =
  let m = Bitmask.create ~width:8 ~valid:4 in
  Alcotest.check_raises "clear permanent bit"
    (Invalid_argument "Bitmask.clear: bit is permanently set") (fun () ->
      Bitmask.clear m 5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitmask: bit index out of range") (fun () ->
      ignore (Bitmask.test m 8));
  Alcotest.check_raises "width too large"
    (Invalid_argument "Bitmask.create: width out of [0, 61]") (fun () ->
      ignore (Bitmask.create ~width:64 ~valid:10));
  Alcotest.check_raises "valid > width"
    (Invalid_argument "Bitmask.create: valid > width") (fun () ->
      ignore (Bitmask.create ~width:4 ~valid:5))

let test_pp () =
  let m = Bitmask.create ~width:4 ~valid:4 in
  Bitmask.set m 1;
  Alcotest.(check string) "msb first" "0010" (Format.asprintf "%a" Bitmask.pp m)

let prop_ffz_returns_clear_bit =
  let gen =
    QCheck2.Gen.(
      let* valid = int_range 1 48 in
      let* sets = list_size (int_bound 48) (int_bound (valid - 1)) in
      return (valid, sets))
  in
  Util.qtest "ffz returns a clear usable bit" gen (fun (valid, sets) ->
      let m = Bitmask.create ~width:48 ~valid in
      List.iter (Bitmask.set m) sets;
      match Bitmask.ffz m with
      | Some i -> i < valid && not (Bitmask.test m i)
      | None -> Bitmask.popcount m = valid)

let prop_popcount_matches_sets =
  let gen = QCheck2.Gen.(list_size (int_bound 30) (int_bound 47)) in
  Util.qtest "popcount equals distinct set bits" gen (fun sets ->
      let m = Bitmask.create ~width:48 ~valid:48 in
      List.iter (Bitmask.set m) sets;
      Bitmask.popcount m = List.length (List.sort_uniq compare sets))

(* [popcount] and [set_bits] against a bit-by-bit count over the usable
   range, with permanently-set padding above [valid]. *)
let prop_popcount_naive =
  let gen =
    QCheck2.Gen.(
      let* width = int_range 1 61 in
      let* valid = int_range 0 width in
      let* sets = list_size (int_bound 40) (int_bound (width - 1)) in
      return (width, valid, sets))
  in
  Util.qtest "popcount matches a naive count of usable bits" gen
    (fun (width, valid, sets) ->
      let m = Bitmask.create ~width ~valid in
      List.iter (Bitmask.set m) sets;
      let naive = ref 0 in
      for i = 0 to valid - 1 do
        if Bitmask.test m i then incr naive
      done;
      let padding_set = ref true in
      for i = valid to width - 1 do
        padding_set := !padding_set && Bitmask.test m i
      done;
      !padding_set
      && Bitmask.popcount m = !naive
      && Bitmask.set_bits m land lnot ((1 lsl valid) - 1) = 0
      && List.for_all
           (fun i -> Bitmask.test m i = (Bitmask.set_bits m land (1 lsl i) <> 0))
           (List.init valid Fun.id))

let suite =
  [ Alcotest.test_case "create with padding" `Quick test_create;
    Alcotest.test_case "set/clear/test" `Quick test_set_clear;
    Alcotest.test_case "find-first-zero" `Quick test_ffz;
    Alcotest.test_case "ffz respects valid range" `Quick test_ffz_respects_valid;
    Alcotest.test_case "error conditions" `Quick test_errors;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    prop_ffz_returns_clear_bit;
    prop_popcount_matches_sets;
    prop_popcount_naive ]
