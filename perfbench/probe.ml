(* Host clocks, allocation probes and the in-memory span recorder.

   Spans live in preallocated arrays, so recording one allocates nothing
   but the word probe itself, whose cost is a constant calibrated at
   start-up. That constant is what lets span words reconcile exactly with
   an op's words. *)

let clock = Unix.gettimeofday

(* Words allocated so far: exact minor words plus words allocated straight
   into the major heap (major minus promoted). [Gc.quick_stat]'s minor
   count only moves at collections, so it is not used. *)
let words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- spans --- *)

type layer =
  | Op  (** one op: a program side, or one sweep cell served *)
  | Parse  (** Tce_minijs.Parser.parse *)
  | Bc_compile  (** Tce_jit.Bc_compile.compile *)
  | Create  (** Tce_engine.Engine.create *)
  | Run_main  (** Engine.run_main: the program's top level *)
  | Warmup  (** one warm-up Engine.call_by_name "bench" *)
  | Measure  (** the measured Engine.call_by_name "bench" *)
  | Record  (** Tce_runner.Record.of_pair *)
  | Cache_key  (** Tce_runner.Cache.bench_key *)
  | Cache_find  (** Tce_runner.Cache.find *)
  | Row_decode  (** Tce_runner.Record.workload_of_json *)
  | Aggregate  (** Tce_runner.Sweep.aggregate + frontier *)

let layer_name = function
  | Op -> "op"
  | Parse -> "minijs.parse"
  | Bc_compile -> "jit.bc_compile"
  | Create -> "engine.create"
  | Run_main -> "engine.run_main"
  | Warmup -> "engine.warmup"
  | Measure -> "engine.measure"
  | Record -> "metrics.record"
  | Cache_key -> "runner.cache_key"
  | Cache_find -> "runner.cache_find"
  | Row_decode -> "runner.row_decode"
  | Aggregate -> "runner.aggregate"

let capacity = 1 lsl 16
let layer_of = Array.make capacity Op
let parent = Array.make capacity (-1)
let t0 = Float.Array.make capacity 0.
let t1 = Float.Array.make capacity 0.
let w0 = Float.Array.make capacity 0.
let w1 = Float.Array.make capacity 0.
let count = ref 0
let top = ref (-1)
let enabled = ref false

(* Words one probe allocates after taking its reading. *)
let probe_words = ref 0.

(** Open a span; returns its index, or -1 when tracing is off. *)
let start layer =
  if not !enabled then -1
  else begin
    let i = !count in
    if i >= capacity then failwith "perfbench: span buffer full";
    count := i + 1;
    layer_of.(i) <- layer;
    parent.(i) <- !top;
    top := i;
    Float.Array.set w0 i (words ());
    Float.Array.set t0 i (clock ());
    i
  end

let stop i =
  if i >= 0 then begin
    Float.Array.set t1 i (clock ());
    Float.Array.set w1 i (words ());
    top := parent.(i)
  end

let reset () =
  count := 0;
  top := -1

let calibrate () =
  let was = !enabled in
  enabled := true;
  reset ();
  (* warm the probe path, then measure an empty span *)
  for _ = 1 to 3 do stop (start Op) done;
  let i = start Op in
  stop i;
  probe_words := Float.Array.get w1 i -. Float.Array.get w0 i;
  reset ();
  enabled := was

let duration i = Float.Array.get t1 i -. Float.Array.get t0 i

(* Net words of a span: its interval minus its own start probe. *)
let span_words i = Float.Array.get w1 i -. Float.Array.get w0 i -. !probe_words

(* Self time / self words of every recorded span: a span's own interval
   minus the intervals of its direct children. Child words also exclude
   the child's stop probe, which lands in the parent's interval. *)
let self_times () =
  let n = !count in
  let st = Array.init n duration in
  let sw = Array.init n span_words in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p >= 0 then begin
      st.(p) <- st.(p) -. duration i;
      sw.(p) <- sw.(p) -. span_words i -. (2. *. !probe_words)
    end
  done;
  (st, sw)

(** Check that every op's spans reconcile. Self values are computed by
    subtraction, so per op they sum to the op's wall, and self words plus
    the probes' constant allocation sum to the op's words; both sums are
    checked (exactly for words, within [resolution] seconds for time).
    What can really fail is a negative self value: children that outlast
    their parent, or a probe that allocated more or less than calibrated.
    Returns the number of ops that failed. *)
let reconcile ~resolution =
  let st, sw = self_times () in
  let n = !count in
  let root = Array.make n (-1) in
  for i = 0 to n - 1 do
    root.(i) <- (if parent.(i) < 0 then i else root.(parent.(i)))
  done;
  let sum_t = Array.make n 0. and sum_w = Array.make n 0. in
  let probes = Array.make n 0 and neg = Array.make n false in
  for i = 0 to n - 1 do
    let r = root.(i) in
    sum_t.(r) <- sum_t.(r) +. st.(i);
    sum_w.(r) <- sum_w.(r) +. sw.(i);
    (* the root's start probe, and each descendant's start and stop *)
    probes.(r) <- probes.(r) + (if i = r then 1 else 2);
    if st.(i) < -.resolution || sw.(i) < 0. then neg.(r) <- true
  done;
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if parent.(i) < 0 then begin
      let words_ok =
        sum_w.(i) +. (float_of_int probes.(i) *. !probe_words)
        = Float.Array.get w1 i -. Float.Array.get w0 i
      in
      let time_ok = Float.abs (sum_t.(i) -. duration i) <= resolution in
      if neg.(i) || not (words_ok && time_ok) then incr bad
    end
  done;
  !bad

(** Self seconds and self words per layer over all recorded spans. *)
let by_layer () =
  let st, sw = self_times () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to !count - 1 do
    let l = layer_of.(i) in
    let t, w, c = Option.value (Hashtbl.find_opt tbl l) ~default:(0., 0., 0) in
    Hashtbl.replace tbl l (t +. st.(i), w +. sw.(i), c + 1)
  done;
  fun l -> Option.value (Hashtbl.find_opt tbl l) ~default:(0., 0., 0)

(** Total duration of root spans (ops). *)
let root_seconds () =
  let s = ref 0. in
  for i = 0 to !count - 1 do
    if parent.(i) < 0 then s := !s +. duration i
  done;
  !s

(** Write every span as one JSON line: layer, parent index, start and end
    (seconds since the first span), words. *)
let write path =
  let oc = open_out path in
  let base = if !count > 0 then Float.Array.get t0 0 else 0. in
  for i = 0 to !count - 1 do
    Printf.fprintf oc
      "{\"i\":%d,\"layer\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,\"words\":%.0f}\n"
      i (layer_name layer_of.(i)) parent.(i)
      (Float.Array.get t0 i -. base)
      (Float.Array.get t1 i -. base)
      (span_words i)
  done;
  close_out oc
