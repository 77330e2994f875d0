(** The Class Cache (paper §4.2.1.3): a small hardware cache of Class List
    entries, accessed in parallel with the L1 write on every special store
    ([movStoreClassCache] / [movStoreClassCacheArray]).

    Geometry is configurable (paper default: 128 entries, 2-way, LRU). A hit
    is free; a miss walks the Class List in memory (the victim is written
    back, like a TLB). The functional update is [Class_list.update]; this
    module layers the timing-visible behaviour (hit/miss/writeback counts and
    the misspeculation exception) on top. *)

type config = { entries : int; ways : int }

let default_config = { entries = 128; ways = 2 }

type way = { mutable tag : int; mutable valid : bool; mutable lru : int }
(* The cached copy of the Class List entry is not duplicated here: the cache
   and the backing list are kept coherent by construction (every access goes
   through this module, and compiler reads snoop it), so presence/LRU state
   is all the hardware model needs to track. A qcheck property pins the
   observational equivalence of "cache + writeback" and "direct list". *)

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable first_profiles : int;
  mutable invalidations : int;
  mutable exceptions : int;
}

(** The result of a special store's Class Cache request. *)
type access_result = {
  mutable hit : bool;  (** false = the Class List in memory was walked *)
  mutable exn_raised : bool;  (** misspeculation hardware exception *)
  mutable functions_to_deopt : int list;
      (** FunctionList of the broken slot (empty unless [exn_raised]) *)
  mutable outcome : Class_list.update_outcome;
}

type t = {
  config : config;
  sets : way array array;  (** [sets.(set_index).(way)] *)
  set_conflicts : int array;
      (** per-set count of valid-victim evictions (capacity/conflict misses
          that wrote back a live entry) — the attribution heatmap's source *)
  mutable clock : int;
  stats : stats;
  mutable trace : Tce_obs.Trace.t;
      (** observability sink for misspeculation exceptions (installed by
          the engine; {!Tce_obs.Trace.null} = disabled) *)
  mutable fault : Tce_fault.Injector.t;
      (** fault injector for campaigns (installed by the engine;
          {!Tce_fault.Injector.null} = disarmed, zero-cost) *)
  result : access_result;
      (** the record {!access} fills and returns (one per cache, so a
          request does not allocate its result) *)
}

let fresh_stats () =
  {
    accesses = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    first_profiles = 0;
    invalidations = 0;
    exceptions = 0;
  }

let create ?(config = default_config) () =
  if config.entries mod config.ways <> 0 then
    invalid_arg "Class_cache: entries must be a multiple of ways";
  let nsets = config.entries / config.ways in
  {
    config;
    sets =
      Array.init nsets (fun _ ->
          Array.init config.ways (fun _ -> { tag = 0; valid = false; lru = 0 }));
    set_conflicts = Array.make nsets 0;
    clock = 0;
    stats = fresh_stats ();
    trace = Tce_obs.Trace.null;
    fault = Tce_fault.Injector.null;
    result =
      {
        hit = false;
        exn_raised = false;
        functions_to_deopt = [];
        outcome = Class_list.Still_mono;
      };
  }

let nsets t = Array.length t.sets

(* The way loops are top-level functions: [Array.iter] closures over
   [ref]s would be allocated on every special store. *)

(* Way holding [key], or -1. A key is filled only on a miss, so it lives in
   at most one way. *)
let rec find_way (set : way array) (key : int) (i : int) : int =
  if i >= Array.length set then -1
  else
    let w = Array.unsafe_get set i in
    if w.valid && w.tag = key then i else find_way set key (i + 1)

(* Victim way: the last invalid way if any, else the first way with the
   strictly smallest LRU stamp. *)
let rec victim_way (set : way array) (i : int) (v : int) : int =
  if i >= Array.length set then v
  else
    let w = Array.unsafe_get set i in
    let vw = Array.unsafe_get set v in
    if (not w.valid) || (vw.valid && w.lru < vw.lru) then
      victim_way set (i + 1) i
    else victim_way set (i + 1) v

(** Cache lookup/fill for the entry [ClassID ‖ Line]. Returns [true] on hit.
    The set index mixes the ClassID into the low bits (indexing by the raw
    concatenation would put every class in one set, since the set count
    divides 256). *)
let touch t ~classid ~line =
  let key = (classid lsl 8) lor line in
  let si = (classid + (line * 41)) mod nsets t in
  let set = t.sets.(si) in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let hw = find_way set key 0 in
  if hw >= 0 then begin
    set.(hw).lru <- t.clock;
    t.stats.hits <- t.stats.hits + 1;
    true
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let victim = set.(victim_way set 0 0) in
    if victim.valid then begin
      t.stats.writebacks <- t.stats.writebacks + 1;
      t.set_conflicts.(si) <- t.set_conflicts.(si) + 1
    end;
    victim.valid <- true;
    victim.tag <- key;
    victim.lru <- t.clock;
    false
  end

(** Invalidate the cached copy of [ClassID ‖ Line] if present (fault
    injection: forced eviction). Timing-only — the next access misses and
    re-walks the Class List; the backing list is untouched. *)
let evict t ~classid ~line =
  let key = (classid lsl 8) lor line in
  let set = t.sets.((classid + (line * 41)) mod nsets t) in
  Array.iter (fun w -> if w.valid && w.tag = key then w.valid <- false) set

(** One special-store request (paper Fig. 4/5/6): looks up/fills the cache,
    applies the profiling update, and raises the misspeculation exception
    when a speculated slot goes polymorphic. On exception the runtime's
    share of the work (draining the FunctionList, clearing SpeculateMap) is
    performed here and the victims are returned for deoptimization. The
    returned record is the cache's own [result], overwritten by the next
    request. *)
let access t (cl : Class_list.t) ~classid ~line ~pos ~value_classid =
  let inj = t.fault in
  let armed = Tce_fault.Injector.armed inj in
  (* Fault hooks (campaigns only; every hook below is skipped when the
     injector is disarmed, keeping the unfaulted path bit-identical). *)
  if armed then begin
    if Tce_fault.Injector.fire inj ~classid ~line ~pos Tce_fault.Point.Cc_evict
    then evict t ~classid ~line;
    if
      Tce_fault.Injector.fire inj ~classid ~line ~pos
        Tce_fault.Point.Cl_flip_init
    then Class_list.corrupt_flip cl ~classid ~line ~pos ~map:Class_list.Init_map;
    if
      Tce_fault.Injector.fire inj ~classid ~line ~pos
        Tce_fault.Point.Cl_flip_valid
    then
      Class_list.corrupt_flip cl ~classid ~line ~pos ~map:Class_list.Valid_map;
    if
      Tce_fault.Injector.fire inj ~classid ~line ~pos
        Tce_fault.Point.Cl_flip_speculate
    then
      Class_list.corrupt_flip cl ~classid ~line ~pos
        ~map:Class_list.Speculate_map
  end;
  let hit = touch t ~classid ~line in
  let dropped =
    armed
    && Tce_fault.Injector.fire inj ~classid ~line ~pos
         Tce_fault.Point.Cc_drop_update
  in
  (* a dropped update loses the profiling update *)
  let outcome =
    if dropped then Class_list.Still_mono
    else Class_list.update cl ~classid ~line ~pos ~value_classid
  in
  let fns =
    if dropped then []
    else Class_list.victims cl ~classid ~line ~pos ~value_classid outcome
  in
  (match outcome with
  | Class_list.First_profile -> t.stats.first_profiles <- t.stats.first_profiles + 1
  | Now_polymorphic _ -> t.stats.invalidations <- t.stats.invalidations + 1
  | _ -> ());
  (* Spurious exception: drain the slot's FunctionList although the profile
     never broke — always safe (the victims just deopt needlessly). *)
  let fns =
    if
      armed
      && Tce_fault.Injector.fire inj ~classid ~line ~pos
           Tce_fault.Point.Cc_spurious_exn
    then fns @ Class_list.take_speculators cl ~classid ~line ~pos
    else fns
  in
  (* Delivery faults: the genuine victims can be dropped entirely
     (Lost_deopt — must be *detected* downstream) or parked for delayed
     delivery (Cc_delayed_exn). *)
  let delivered, suppressed =
    if fns <> [] && armed then
      if Tce_fault.Injector.fire inj ~classid ~line ~pos Tce_fault.Point.Lost_deopt
      then begin
        Tce_fault.Injector.stash_lost inj fns;
        ([], true)
      end
      else if
        Tce_fault.Injector.fire inj ~classid ~line ~pos
          Tce_fault.Point.Cc_delayed_exn
      then begin
        Tce_fault.Injector.stash_delayed inj fns;
        ([], true)
      end
      else (fns, false)
    else (fns, false)
  in
  let due = if armed then Tce_fault.Injector.tick_delayed inj else [] in
  let fns = delivered @ due in
  let r = t.result in
  r.hit <- hit;
  r.outcome <- outcome;
  if fns <> [] then begin
    t.stats.exceptions <- t.stats.exceptions + 1;
    if Tce_obs.Trace.on t.trace then
      Tce_obs.Trace.emit t.trace
        (Tce_obs.Trace.Cc_exception
           { classid; line; pos; victims = List.length fns });
    r.exn_raised <- true;
    r.functions_to_deopt <- fns
  end
  else begin
    r.exn_raised <-
      (match outcome with
      | Class_list.Now_polymorphic { exception_raised = true; _ } ->
        not suppressed
      | _ -> false);
    r.functions_to_deopt <- []
  end;
  r

(** Install the observability sink (the engine wires its trace here). *)
let set_trace t tr = t.trace <- tr

(** Install the fault injector (the engine wires campaigns here). *)
let set_fault t inj = t.fault <- inj

(** Currently valid ways (the Chrome-trace occupancy counter track). *)
let occupancy t =
  Array.fold_left
    (fun acc set ->
      Array.fold_left (fun acc w -> if w.valid then acc + 1 else acc) acc set)
    0 t.sets

(** Valid ways per set, in set order (the attribution occupancy heatmap). *)
let set_occupancy t =
  Array.map
    (fun set ->
      Array.fold_left (fun acc w -> if w.valid then acc + 1 else acc) 0 set)
    t.sets

(** Valid-victim evictions per set since the last {!reset_stats}. *)
let set_conflicts t = Array.copy t.set_conflicts

let hit_rate t =
  if t.stats.accesses = 0 then 1.0
  else float_of_int t.stats.hits /. float_of_int t.stats.accesses

(** Hardware cost estimate in bytes (paper §5.4: < 1.5 KB at 128 entries):
    per entry one tag word (2 B), three 1-byte maps, seven 1-byte props. *)
let storage_bytes t = t.config.entries * (2 + 3 + 7)

let reset_stats t =
  let s = fresh_stats () in
  t.stats.accesses <- s.accesses;
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.writebacks <- 0;
  t.stats.first_profiles <- 0;
  t.stats.invalidations <- 0;
  t.stats.exceptions <- 0;
  Array.fill t.set_conflicts 0 (Array.length t.set_conflicts) 0
