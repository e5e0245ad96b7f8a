(* SWAR population count. Words live in bits 0..61, so the first mask
   stops at bit 60 (pairs 60-61) and every constant fits a 63-bit [int];
   the per-byte sums reach the top byte through a multiply whose overflow
   past bit 62 only drops bits above the result. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let[@inline] lowest x = popcount ((x land (-x)) - 1)

(* Smear the highest set bit into every lower position, then count. *)
let highest x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  popcount x - 1
