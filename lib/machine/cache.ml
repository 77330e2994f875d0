(** Set-associative cache timing model (LRU, write-allocate). Tracks hits
    and misses only — data lives in [Tce_vm.Mem]; this is purely the timing
    side. Used for L1I, L1D and L2. *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = {
  line_bits : int;
  nsets : int;
  set_mask : int;
      (** [nsets - 1] when [nsets] is a power of two (every Table 2
          geometry), so set selection is a mask instead of a [mod]; -1
          otherwise *)
  ways : int;
  tags : int array array;  (** [tags.(set).(way)]; -1 = invalid *)
  lru : int array array;
  mru : int array;
      (** per set, the way of the last hit or fill: checked before the
          full way scan. A line lives in at most one way, so a match there
          is the way the scan would find; LRU stamps, statistics and the
          victim choice never read it *)
  mutable clock : int;
  stats : stats;
}

let log2_exact n =
  let rec go n b = if n <= 1 then b else go (n / 2) (b + 1) in
  go n 0

let create ~size_kb ~ways ~line_bytes =
  let lines = size_kb * 1024 / line_bytes in
  let nsets = max 1 (lines / ways) in
  {
    line_bits = log2_exact line_bytes;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    ways;
    tags = Array.init nsets (fun _ -> Array.make ways (-1));
    lru = Array.init nsets (fun _ -> Array.make ways 0);
    mru = Array.make nsets 0;
    clock = 0;
    stats = { accesses = 0; hits = 0; misses = 0 };
  }

(* line >= 0 always (addresses are non-negative), so the mask is exactly
   [line mod nsets]. *)
let set_of t line = if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

(* The way loops are top-level functions with [int]-annotated parameters:
   a local [let rec] closing over [tags] / [line] is heap-allocated on every
   call by the Closure backend, and an unannotated hoist generalises to
   ['a] and compares through [caml_equal]. *)

(* Way holding [line] in [tags.(0 .. ways-1)], or -1. A line lives in at
   most one way, so the first match is the only one. *)
let rec scan (tags : int array) (line : int) (ways : int) (w : int) : int =
  if w >= ways then -1
  else if Array.unsafe_get tags w = line then w
  else scan tags line ways (w + 1)

(* Victim way: the last empty way if any, else the first way with the
   strictly smallest LRU stamp — the reference model's choice. Shared with
   {!Tlb}, whose entries follow the same policy. *)
let rec pick (tags : int array) (lru : int array) (ways : int) (w : int)
    (v : int) : int =
  if w >= ways then v
  else if Array.unsafe_get tags w = -1 then pick tags lru ways (w + 1) w
  else if
    Array.unsafe_get tags v <> -1
    && Array.unsafe_get lru w < Array.unsafe_get lru v
  then pick tags lru ways (w + 1) w
  else pick tags lru ways (w + 1) v

(* Way holding [line] in set [set]: the set's most-recently-used way
   first, then the full scan. *)
let[@inline] find t (tags : int array) set (line : int) =
  let m = Array.unsafe_get t.mru set in
  if Array.unsafe_get tags m = line then m else scan tags line t.ways 0

(** Access the line containing [addr]; fills on miss. Returns [true] on hit.
    Allocates nothing. The victim choice is bit-identical to the reference
    model's full scan. *)
let access t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let tags = t.tags.(set) and lru = t.lru.(set) in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let hw = find t tags set line in
  if hw >= 0 then begin
    Array.unsafe_set lru hw t.clock;
    Array.unsafe_set t.mru set hw;
    t.stats.hits <- t.stats.hits + 1
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let victim = pick tags lru t.ways 0 0 in
    tags.(victim) <- line;
    lru.(victim) <- t.clock;
    Array.unsafe_set t.mru set victim
  end;
  hw >= 0

(** Insert the line containing [addr] without touching statistics (used to
    model allocation into a cache-resident nursery; see DESIGN.md). *)
let insert t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let tags = t.tags.(set) and lru = t.lru.(set) in
  t.clock <- t.clock + 1;
  if find t tags set line < 0 then begin
    let victim = pick tags lru t.ways 0 0 in
    tags.(victim) <- line;
    lru.(victim) <- t.clock;
    Array.unsafe_set t.mru set victim
  end

let hit_rate t =
  if t.stats.accesses = 0 then 1.0
  else float_of_int t.stats.hits /. float_of_int t.stats.accesses

let reset_stats t =
  t.stats.accesses <- 0;
  t.stats.hits <- 0;
  t.stats.misses <- 0
