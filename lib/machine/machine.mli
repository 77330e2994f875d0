(** Cycle-level execution of optimized (LIR) code: 4-wide in-order-dispatch /
    out-of-order-completion scoreboard with a bounded window, load/store
    ports, L1I/L1D/L2, D/I-TLBs, branch prediction, MSHR fill merging, and
    the Class Cache — parameters from {!Config} (the paper's Table 2).
    A research-grade MARSS substitute (DESIGN.md §2).

    The executor runs the {!Predecode} stream (decoded once per installed
    compilation); the templated executor allocates nothing per simulated
    instruction, the boundary of guest and runtime calls included — see
    lib/machine/README.md, "Allocation
    discipline". *)

exception Trap of string

(** A misspeculation exception with the faulting-store context attached —
    what broke, where, and who has to deopt (the attribution ledger's
    causal-chain anchor). *)
type cc_exn_info = {
  cc_classid : int;
  cc_line : int;
  cc_pos : int;
  cc_value_classid : int;
  cc_victims : int list;  (** opt_ids from the slot's FunctionList *)
}

(** Callbacks into the engine (tier driver). Arguments cross as borrowed
    views, never as vectors: the caller's register file [src] and the
    operand index vector [argr] already in the predecoded call. The view is
    valid only until the callback returns: a guest callee copies it into
    its own register file on entry ({!enter_args}), a stub reads it before
    it returns. *)
type host = {
  call_fn :
    int -> Tce_vm.Value.t -> Tce_vm.Value.t array -> int array -> int ->
    Tce_vm.Value.t;
      (** [call_fn fn_id this src argr first]: call guest function [fn_id]
          with [this] and the arguments [src.(argr.(i))] for
          [first <= i < length argr] (an optimized caller's [argr] starts
          with its [this] register, so it passes [first = 1]) *)
  resume :
    opt_id:int -> bc_pc:int -> regs:Tce_vm.Value.t array ->
    result:(int * Tce_vm.Value.t) option -> Tce_vm.Value.t;
      (** deoptimization: resume the interpreter on the code's (shadow)
          bytecode *)
  rt_call :
    Tce_jit.Lir.rt -> Tce_vm.Value.t array -> int array -> float array ->
    int array -> Tce_vm.Value.t;
      (** [rt_call rt src argr fsrc fargr]: execute a runtime stub
          functionally on the arguments [src.(argr.(i))] and the double
          arguments [fsrc.(fargr.(i))]; its double result (the FP result of
          [Rt_fmod], else the numeric value of the returned [Value.t], 0.0
          for non-numbers) goes to the machine's [rt_fres] *)
  on_cc_exception : cc_exn_info -> unit;
      (** misspeculation exception: invalidate the victim opt_ids *)
  on_deopt : int -> unit;  (** a check failed in this opt_id *)
  is_invalidated : int -> bool;
}

(** A compiled superinstruction template: direct-threaded step closures,
    each tail-calling its successor, bit-identical to the per-instruction
    loop (see lib/machine/README.md, "Template fusion invariants").
    Abstract — built and consumed inside {!run}. *)
type template

(** A pooled per-run template environment (host and register files).
    Abstract — recycled across guest calls via [env_pool]. *)
type tenv

(** A templated basic block's deferred entry count and counter summary.
    Abstract — see [dirty]. *)
type tblock

type t = {
  cfg : Config.t;
  heap : Tce_vm.Heap.t;
  cc : Tce_core.Class_cache.t;
  cl : Tce_core.Class_list.t;
  oracle : Tce_core.Oracle.t;
  counters : Counters.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  bp : Branch.t;
  mechanism : bool;
  mutable cycle : int;  (** monotonic dispatch clock *)
  mutable clock_base_instrs : int;
      (** baseline-tier instructions since creation, counted regardless of
          [measuring] — the measurement-independent input to the engine's
          observability/backoff clock *)
  mutable slots : int;
  mutable load_slots : int;
  mutable store_slots : int;
  win_buf : int array;  (** in-flight completion times (ring buffer) *)
  win_mask : int;
  mutable win_head : int;
  mutable win_len : int;
  stq_buf : int array;  (** in-flight store completion times (ring buffer) *)
  stq_mask : int;
  mutable stq_head : int;
  mutable stq_len : int;
  mutable last_iline : int;
  fills : Tce_support.Int_table.t;
      (** in-flight line fills (MSHR merging); 0 = none *)
  pre_cache : (int, Predecode.func) Hashtbl.t;
      (** decoded streams keyed by [opt_id] *)
  mutable measuring : bool;
  trace : Tce_obs.Trace.t;
      (** observability sink (deopt / OSR events; never affects timing) *)
  fault : Tce_fault.Injector.t;
      (** fault injector ({!Tce_fault.Injector.null} = disarmed): OSR-fail
          injection and retire-path re-validation of special stores *)
  attr : Tce_attr.Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): typed
          deopt reasons; never affects timing *)
  prof : Tce_prof.Profile.t;
      (** cycle-attribution profiler ({!Tce_prof.Profile.null} = disabled):
          every clock-advancing site reports its delta to the current
          (function, pc) site; reads timing state, never writes it, so
          simulated cycles are bit-identical with it on or off *)
  mutable reg_classid : int;  (** regObjectClassId (paper §4.2.1.2) *)
  reg_classid_arr : int array;  (** regArrayObjectClassId 0-3 *)
  templates : bool;
      (** fuse pre-decoded streams into superinstruction templates — a pure
          speedup, bit-identical simulated state *)
  tpl_cache : (int, Predecode.func * template option) Hashtbl.t;
      (** compiled templates keyed like [pre_cache]; [None] = stream
          rejected by {!Template.layout}, stay on the per-instruction loop *)
  mutable env_pool : tenv array;
      (** stack of free per-run template environments (register-file
          reuse): [env_pool.(0 .. env_free - 1)] *)
  mutable env_free : int;
  mutable dirty : tblock array;
      (** templated blocks entered while measuring whose counts are not
          yet in [counters]: [dirty.(0 .. dirty_len - 1)] *)
  mutable dirty_len : int;
  mutable run_depth : int;
      (** live {!run} calls; the outermost one's exit (return or raise)
          folds the deferred block counts into [counters], so the
          per-instruction counters ([by_cat], [by_check_kind],
          [guards_obj_load], [opt_loads/stores/branches/fp]) are exact
          whenever no {!run} is live *)
  rt_fres : float array;
      (** one-element cell receiving a runtime stub's double result (a
          [float] returned through {!host} would be boxed) *)
}

val create :
  ?cfg:Config.t -> ?mechanism:bool -> ?trace:Tce_obs.Trace.t ->
  ?fault:Tce_fault.Injector.t -> ?attr:Tce_attr.Ledger.t ->
  ?prof:Tce_prof.Profile.t -> ?templates:bool -> heap:Tce_vm.Heap.t ->
  cc:Tce_core.Class_cache.t -> cl:Tce_core.Class_list.t ->
  oracle:Tce_core.Oracle.t -> counters:Counters.t -> unit -> t

(** Pre-decode [f] into the machine's stream cache (idempotent; keyed by
    [opt_id] with a physical-equality guard). {!run} installs lazily, so
    calling this at compile-install time just moves the decode cost off the
    first execution. *)
val install : t -> Tce_jit.Lir.func -> Predecode.func

(** Model a fresh allocation as nursery-resident (DESIGN.md §5b): insert its
    lines into the D-caches without cost. *)
val prefill : t -> addr:int -> bytes:int -> unit

(** [enter_args regs n this src argr first] writes a callee's incoming
    registers from a {!host.call_fn} view: [regs.(0)] is [this] and
    [regs.(i)] is [src.(argr.(first + i - 1))], for [i] below [n] and below
    the argument count plus one. Returns the number of registers written.
    Shared with the interpreter's call paths. *)
val enter_args :
  Tce_vm.Value.t array -> int -> Tce_vm.Value.t -> Tce_vm.Value.t array ->
  int array -> int -> int

(** [run t host f this src argr first] executes optimized code on [this]
    and the parameters [src.(argr.(i))], [first <= i < length argr] (a
    {!host.call_fn} view), returning the function result (possibly
    produced by a deoptimized continuation). Templated blocks count their
    entries and the outermost call folds the counts into [counters] as it
    returns or raises: read the per-instruction counters only while no
    call is live. *)
val run :
  t -> host -> Tce_jit.Lir.func -> Tce_vm.Value.t -> Tce_vm.Value.t array ->
  int array -> int -> Tce_vm.Value.t
