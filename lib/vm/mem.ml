(** Simulated byte-addressable memory: a zero-initialized space of 8-byte
    words from [base] up. All accesses are word-aligned (the engine only
    ever issues aligned word accesses, like V8 does for tagged slots).
    Addresses double as the physical addresses seen by the cache hierarchy
    of the timing simulator.

    Host backing is split in three, so that a simulated range nothing
    reads costs no host memory:
    - [low] backs the words below the first reserved range (the built-in
      class descriptors and oddballs of every heap);
    - fixed-size [pages] back the words from [hi_base] up; only allocation
      and stores add pages, one at a time and never copied, and a load
      past the last page answers 0;
    - the words in between (the reserved ranges) live in the sparse table
      [gap]: a load there answers 0 unless a store put a value there.

    Semantically this is one flat word array: {!reserve} changes where a
    word is kept, never what a load returns. *)

type t = {
  mutable low : int array;  (** backs [\[base, base + 8 * length low)] *)
  mutable pages : int array array;
      (** page [p] backs the [page_words] words from
          [hi_base + 8 * p * page_words]; [pages.(0 .. backed / page_words - 1)]
          are made, the rest of the spine is [\[||\]] *)
  mutable backed : int;
      (** words backed from [hi_base]: [page_words] × pages made *)
  mutable hi_base : int;
  gap : Tce_support.Int_table.t;  (** byte address -> word, below [hi_base] *)
  mutable next_free : int;  (** bump pointer, byte address *)
  base : int;
}

let default_base = 0x10000

(* 4,096 words (32 KB) per page: the heaps of most engines fit in one or
   two pages, and over a roster pass pages of 1k to 8k words allocate
   within 1.5% of each other. A page is made once and never moves, so
   growth copies nothing. *)
let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

let create ?(base = default_base) () =
  if base land 7 <> 0 then invalid_arg "Mem.create: base not word-aligned";
  {
    low = [||];
    pages = [||];
    backed = 0;
    hi_base = base;
    gap = Tce_support.Int_table.create ~size:8 ();
    next_free = base;
    base;
  }

let check t addr =
  if addr land 7 <> 0 then invalid_arg (Printf.sprintf "Mem: unaligned access 0x%x" addr);
  if addr < t.base then invalid_arg (Printf.sprintf "Mem: access below heap base 0x%x" addr)

(* Word [i] from [hi_base]; [i < backed]. *)
let[@inline] get t i =
  Array.unsafe_get (Array.unsafe_get t.pages (i lsr page_bits)) (i land page_mask)

let[@inline] set t i v =
  Array.unsafe_set (Array.unsafe_get t.pages (i lsr page_bits)) (i land page_mask) v

(* Back at least [n] words from [hi_base], adding zeroed pages. Only the
   spine of page pointers is ever copied (doubling). *)
let ensure t n =
  while t.backed < n do
    let p = t.backed lsr page_bits in
    if p = Array.length t.pages then begin
      let spine = Array.make (max 8 (2 * p)) [||] in
      Array.blit t.pages 0 spine 0 p;
      t.pages <- spine
    end;
    t.pages.(p) <- Array.make page_words 0;
    t.backed <- t.backed + page_words
  done

let load_slow t addr =
  check t addr;
  if addr >= t.hi_base then 0 else Tce_support.Int_table.find t.gap addr 0

(** Aligned accesses to a backed word take an inline fast path: first the
    paged segment (objects), then the [low] segment ([Heap.classid_of]
    reads the oddballs' class words there). An index [(addr - seg) lsr 3]
    is huge when [addr < seg], so one unsigned comparison per segment
    tests both of its bounds. Everything else goes to the checked slow
    path. *)
let load t addr =
  let i = (addr - t.hi_base) lsr 3 in
  if addr land 7 = 0 && i < t.backed then get t i
  else
    let j = (addr - t.base) lsr 3 in
    if addr land 7 = 0 && j < Array.length t.low then Array.unsafe_get t.low j
    else load_slow t addr

let store_slow t addr v =
  check t addr;
  if addr >= t.hi_base then begin
    let i = (addr - t.hi_base) lsr 3 in
    ensure t (i + 1);
    set t i v
  end
  else Tce_support.Int_table.set t.gap addr v

let store t addr v =
  let i = (addr - t.hi_base) lsr 3 in
  if addr land 7 = 0 && i < t.backed then set t i v
  else
    let j = (addr - t.base) lsr 3 in
    if addr land 7 = 0 && j < Array.length t.low then Array.unsafe_set t.low j v
    else store_slow t addr v

let bump t ~bytes ~align =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Mem.allocate: align not a power of 2";
  let addr = (t.next_free + align - 1) land lnot (align - 1) in
  t.next_free <- addr + bytes;
  addr

(** Bump-allocate [bytes], aligned to [align] (a power of two). Returns the
    byte address. There is no collector: the reproduction uses a bump
    allocator (see DESIGN.md — GC is "Rest of Code" in the paper and
    orthogonal to the mechanism). *)
let allocate t ~bytes ~align =
  let addr = bump t ~bytes ~align in
  if t.next_free > t.hi_base then ensure t ((t.next_free - t.hi_base + 7) lsr 3);
  addr

(** Like {!allocate}, but the range gets no host backing: every word that
    overlaps it moves to the sparse [gap] table, and the pages are rebased
    past it (keeping their number, the words above the range moving down).
    The first reservation also turns the words below the range into the
    [low] segment. Addresses, and what loads return, are the same as after
    {!allocate}. *)
let reserve t ~bytes ~align =
  let addr = bump t ~bytes ~align in
  let first = max t.hi_base (addr land lnot 7) in
  let last = max t.hi_base ((addr + bytes + 7) land lnot 7) in
  if last > t.hi_base then begin
    let n = t.backed in
    let below = min n ((first - t.hi_base) lsr 3) in
    let k = (last - t.hi_base) lsr 3 in
    let spill i =
      let v = get t i in
      if v <> 0 then Tce_support.Int_table.set t.gap (t.hi_base + (8 * i)) v
    in
    if t.hi_base = t.base then t.low <- Array.init below (get t)
    else for i = 0 to below - 1 do spill i done;
    for i = below to min n k - 1 do spill i done;
    for i = 0 to n - 1 do
      set t i (if i + k < n then get t (i + k) else 0)
    done;
    t.hi_base <- last
  end;
  addr

(** Total bytes ever allocated (bump high-water mark). *)
let allocated_bytes t = t.next_free - t.base
