(** Fully-associative TLB timing model (LRU over 4 KB pages). *)

type stats = { mutable accesses : int; mutable hits : int; mutable misses : int }

type t = private {
  entries : int;
  pages : int array;
  lru : int array;
  mutable clock : int;
  stats : stats;
  idx : Tce_support.Int_table.t;  (** page -> entry index (hit fast path) *)
  mutable last : int;  (** entry of the last hit or fill — a lookup hint *)
}

val page_bits : int
val create : entries:int -> t
val access : t -> int -> bool
val hit_rate : t -> float
val reset_stats : t -> unit
