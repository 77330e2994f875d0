(** The Class Cache (paper §4.2.1.3): a small set-associative hardware cache
    of Class List entries, accessed in parallel with the L1 write on every
    special store. A hit is free; a miss walks the Class List in memory
    (with a TLB-style writeback of the victim). The paper's configuration —
    128 entries, 2-way, LRU — achieves a > 99.9% hit rate at < 1.5 KB of
    storage. *)

type config = { entries : int; ways : int }

val default_config : config  (** 128 entries, 2-way (paper Table 2) *)

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable first_profiles : int;
  mutable invalidations : int;  (** slots that went polymorphic *)
  mutable exceptions : int;  (** misspeculation hardware exceptions *)
}

type access_result = {
  mutable hit : bool;  (** false = the Class List in memory was walked *)
  mutable exn_raised : bool;  (** misspeculation hardware exception *)
  mutable functions_to_deopt : int list;
      (** FunctionLists of the broken slot and affected descendants *)
  mutable outcome : Class_list.update_outcome;
}

type t = private {
  config : config;
  sets : way array array;
  set_conflicts : int array;
      (** per-set valid-victim evictions (the attribution heatmap's source) *)
  mutable clock : int;
  stats : stats;
  mutable trace : Tce_obs.Trace.t;
      (** observability sink for misspeculation exceptions (installed by
          the engine; {!Tce_obs.Trace.null} = disabled) *)
  mutable fault : Tce_fault.Injector.t;
      (** fault injector for campaigns (installed by the engine;
          {!Tce_fault.Injector.null} = disarmed, zero-cost) *)
  result : access_result;  (** filled and returned by {!access} *)
}

and way = { mutable tag : int; mutable valid : bool; mutable lru : int }

(** @raise Invalid_argument when [entries] is not a multiple of [ways]. *)
val create : ?config:config -> unit -> t

(** Cache lookup/fill for [ClassID ‖ Line] (timing only); [true] on hit. *)
val touch : t -> classid:int -> line:int -> bool

(** Invalidate the cached copy of [ClassID ‖ Line] if present (fault
    injection: forced eviction; timing-only). *)
val evict : t -> classid:int -> line:int -> unit

(** One special-store request (paper Fig. 4/5/6): look up/fill the cache,
    apply the profiling update (with transition-tree propagation), and
    raise the misspeculation exception when a speculated slot breaks.
    Returns the cache's own [result] record, overwritten by the next
    request: read it before calling [access] again. *)
val access :
  t -> Class_list.t -> classid:int -> line:int -> pos:int -> value_classid:int ->
  access_result

val hit_rate : t -> float

(** Install the observability sink (the engine wires its trace here). *)
val set_trace : t -> Tce_obs.Trace.t -> unit

(** Install the fault injector (the engine wires campaigns here). *)
val set_fault : t -> Tce_fault.Injector.t -> unit

(** Currently valid ways (the Chrome-trace occupancy counter track). *)
val occupancy : t -> int

(** Valid ways per set, in set order (the attribution occupancy heatmap). *)
val set_occupancy : t -> int array

(** Valid-victim evictions per set since the last {!reset_stats} — which
    sets the LRU contention concentrates in. *)
val set_conflicts : t -> int array

(** Storage estimate in bytes (paper §5.4: < 1.5 KB at 128 entries). *)
val storage_bytes : t -> int

val reset_stats : t -> unit
