(** Double payloads as single simulated-memory words.

    A simulated word is a 63-bit OCaml [int], so a full IEEE-754 double does
    not fit. We store bits 63..1 (sign, exponent, 51 of 52 mantissa bits) and
    drop the least-significant mantissa bit — every double in the system
    (heap-number payloads, unboxed double elements) goes through this
    canonicalization, so the interpreter and the optimized tier compute over
    the *same* values and cross-tier result checks are exact. The precision
    loss is one ulp of mantissa and does not affect any benchmark output. *)

let[@inline] of_float f : int =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 1)

let[@inline] to_float (w : int) : float =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int w) 1)

(** Canonicalize a float to the representable subset. *)
let canon f = to_float (of_float f)
