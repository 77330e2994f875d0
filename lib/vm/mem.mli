(** Simulated byte-addressable memory: a zero-initialized space of 8-byte
    words from a base address up. Accesses must be word-aligned; addresses
    double as the physical addresses seen by the timing simulator's cache
    hierarchy.

    Host memory backs only what simulation uses: the words below the first
    reserved range, and fixed-size pages from the end of the last one up,
    made on demand by allocation and stores and never copied. Reserved
    ranges ({!reserve}) are kept sparsely. A load of a word never stored
    answers 0 wherever it lies, and loads never add backing. *)

type t

val default_base : int

(** Words per page of the paged segment (a constant). *)
val page_words : int

(** @raise Invalid_argument if [base] is not word-aligned. *)
val create : ?base:int -> unit -> t

(** @raise Invalid_argument on unaligned or below-base addresses. *)
val load : t -> int -> int

(** @raise Invalid_argument on unaligned or below-base addresses. *)
val store : t -> int -> int -> unit

(** Bump-allocate [bytes] aligned to [align] (a power of two); returns the
    byte address. No collector (see DESIGN.md). *)
val allocate : t -> bytes:int -> align:int -> int

(** Like {!allocate} (same address, same effect on later allocations),
    but the range gets no host backing: a load there answers 0 unless a
    store put a value there, and such stores are kept sparsely. For large
    tables that are addressed (so their cache traffic is simulated) but
    never read through [Mem], like the Class List. *)
val reserve : t -> bytes:int -> align:int -> int

(** Bump high-water mark. *)
val allocated_bytes : t -> int
