(** Bimodal branch predictor: a table of 2-bit saturating counters indexed
    by a hash of (function id, pc), one byte per counter. *)

type stats = { mutable branches : int; mutable mispredicts : int }

type t = { table : Bytes.t; mask : int; stats : stats }

let create ?(bits = 16) () =
  let n = 1 lsl bits in
  { table = Bytes.make n '\001'; mask = n - 1; stats = { branches = 0; mispredicts = 0 } }

let index t ~fn ~pc = ((fn * 4096) + (pc * 7)) land t.mask

(** Record an executed conditional branch outcome; returns [true] if the
    prediction was correct. *)
let record t ~fn ~pc ~taken =
  (* [i] is masked to the table, so the unchecked accesses are safe *)
  let i = index t ~fn ~pc in
  let c = Char.code (Bytes.unsafe_get t.table i) in
  let predicted_taken = c >= 2 in
  t.stats.branches <- t.stats.branches + 1;
  let correct = predicted_taken = taken in
  if not correct then t.stats.mispredicts <- t.stats.mispredicts + 1;
  (* int-specialized saturation: Stdlib.min/max are generic-compare calls *)
  Bytes.unsafe_set t.table i
    (Char.unsafe_chr
       (if taken then (if c >= 3 then 3 else c + 1)
        else if c <= 0 then 0
        else c - 1));
  correct

let mispredict_rate t =
  if t.stats.branches = 0 then 0.0
  else float_of_int t.stats.mispredicts /. float_of_int t.stats.branches

let reset_stats t =
  t.stats.branches <- 0;
  t.stats.mispredicts <- 0
