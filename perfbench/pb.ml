(** Benchmark harness for the verifier, driven by [perfbench/run.py].

    {v
    pb.exe WORKLOAD --seed N --seconds S --trace 0|1 --work DIR --flux EXE
    v}

    Workloads:
    - [table1]: the paper's RMat + 7 Flux programs checked cold as one
      batch through [Engine.check_programs] at [--jobs 2];
    - [corpus]: [Pgen] programs, each checked cold as its own request,
      one after another;
    - [recheck]: the edit loop through a fresh fluxd, primed with the
      Table-1 programs, driven by one client on one connection; its
      latencies are the daemon's on-CPU time per request.

    With [--trace 0] the run reports the end-to-end metrics; with
    [--trace 1] it drives each layer's public entry points itself (one
    domain), timing every call from the outside, and reports the
    per-layer metrics. Inputs are generated from [--seed] only. Every
    verdict is checked against a reference that does not come from the
    checker under test; a mismatch is counted in [failed] and makes
    the exit code 1. The last stdout line is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}]. All files (cache
    dirs, the daemon socket) live under [--work]. *)

module Ast = Flux_syntax.Ast
module Parser = Flux_syntax.Parser
module Typeck = Flux_syntax.Typeck
module Genv = Flux_check.Genv
module Checker = Flux_check.Checker
module Solve = Flux_fixpoint.Solve
module Solver = Flux_smt.Solver
module Profile = Flux_smt.Profile
module Term = Flux_smt.Term
module Discharge = Flux_absint.Discharge
module Engine = Flux_engine.Engine
module Workloads = Flux_workloads.Workloads
module Rng = Flux_fuzz.Rng
module Pgen = Flux_fuzz.Pgen
module Oracle = Flux_fuzz.Oracle
module Exec = Flux_server.Exec
module Protocol = Flux_server.Protocol
module Daemon = Flux_server.Daemon
module Json = Flux_server.Json

let now = Unix.gettimeofday

(* The CLI default on the 2-core reference box, pinned so the schedule
   does not change with the machine. *)
let jobs = 2

(* ------------------------------------------------------------------ *)
(* Statistics and process probes                                       *)
(* ------------------------------------------------------------------ *)

(** Percentile with linear interpolation between closest ranks
    ([p] in [0, 100]): steadier than nearest-rank on heavy tails. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

(** Trimmed Harrell-Davis estimate of the [p]-quantile ([p] in (0, 1)):
    a weighted mean of the order statistics, each weighted by the
    Beta((n+1)p, (n+1)(1-p)) mass of its rank interval [[i/n, (i+1)/n]],
    with the mass kept only inside a window of width 1/sqrt(n) around
    the Beta mode (Akinshin, 2022). Where a lumpy latency distribution
    has a gap at the quantile (hits of small and large programs, a
    steep tail), a single order statistic jumps across it whenever a
    few samples change rank; this estimate moves smoothly. The trim
    keeps the far tail (the seconds-long checks above p99) out of p95.
    The masses come from a midpoint rule on the log-density. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n <= 2 then percentile (100. *. p) xs
  else begin
    let nf = float_of_int n in
    let alpha = p *. (nf +. 1.) and beta = (1. -. p) *. (nf +. 1.) in
    let width = 1. /. sqrt nf in
    let mode = (alpha -. 1.) /. (alpha +. beta -. 2.) in
    let lo = Float.min (1. -. width) (Float.max 0. (mode -. (width /. 2.))) in
    let hi = lo +. width in
    (* [sub] midpoints per rank interval *)
    let sub = 16 in
    let m = n * sub in
    let x j = (float_of_int j +. 0.5) /. float_of_int m in
    let logd j = ((alpha -. 1.) *. log (x j)) +. ((beta -. 1.) *. log (1. -. x j)) in
    let top = ref Float.neg_infinity in
    for j = 0 to m - 1 do
      if x j >= lo && x j <= hi then top := Float.max !top (logd j)
    done;
    let mass = Array.make n 0. in
    for j = 0 to m - 1 do
      if x j >= lo && x j <= hi then
        mass.(j / sub) <- mass.(j / sub) +. exp (logd j -. !top)
    done;
    let total = Array.fold_left ( +. ) 0. mass in
    let acc = ref 0. in
    Array.iteri (fun i w -> acc := !acc +. (w *. a.(i))) mass;
    !acc /. total
  end

let fsum xs = List.fold_left ( +. ) 0. xs
let share a b = if b > 0. then a /. b else 0.
let read_file path = In_channel.with_open_bin path In_channel.input_all

let proc_status_kb pid field =
  let prefix = field ^ ":" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then
           Scanf.sscanf
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
             " %d" Option.some
         else None)
  |> Option.value ~default:0

(** VmHWM of a live process, in MiB. *)
let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.

(** user+sys seconds of a live process ([/proc/PID/stat] fields 14-15,
    in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  let f =
    String.split_on_char ' '
      (String.sub s (close + 2) (String.length s - close - 2))
    |> Array.of_list
  in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** On-CPU seconds of each live thread of a process, from
    [/proc/PID/task/*/schedstat] (nanoseconds). Unlike wall-clock time
    it leaves out run-queue waits and hypervisor steal, which on a
    shared box stretch a millisecond request by multiples. *)
let threads_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun tid ->
         match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
         | s ->
             Some (tid, float_of_string (List.hd (String.split_on_char ' ' s)) /. 1e9)
         | exception Sys_error _ -> None)

(** Wait until no thread of a process is on a CPU or runnable (state
    [R] in [/proc/PID/task/TID/stat]), for at most [timeout] seconds.
    The kernel adds a running thread's CPU time to its schedstat only
    when it is switched out (or at a tick), so a daemon thread read
    right after it sent a reply leaves its last slice to the next
    request. *)
let wait_idle ?(timeout = 0.05) pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let running tid =
    match read_file (Printf.sprintf "%s/%s/stat" dir tid) with
    | s -> s.[String.rindex s ')' + 2] = 'R'
    | exception Sys_error _ -> false
  in
  let deadline = now () +. timeout in
  let rec go () =
    if Array.exists running (Sys.readdir dir) && now () < deadline then begin
      Unix.sleepf 0.0002;
      go ()
    end
  in
  go ()

(** CPU seconds the threads spent between two {!threads_cpu} readings;
    a thread that exited in between is left out, a new one counts
    whole. *)
let cpu_between before after =
  fsum
    (List.map
       (fun (tid, t) -> t -. Option.value (List.assoc_opt tid before) ~default:0.)
       after)

(* ------------------------------------------------------------------ *)
(* Checker state and profile cells                                     *)
(* ------------------------------------------------------------------ *)

(** Cold start for this domain: solver caches and stats, fixpoint stats,
    the absint memo, the term intern table, the profile and the fresh
    name counter (signature resolution draws names from it before the
    checker resets it per function, so without this a program's names,
    and its allocation, would depend on the program checked before). *)
let fresh () =
  Flux_rtype.Rty.reset_fresh ();
  Solver.clear_cache ();
  Solver.reset_stats ();
  Solve.reset_stats ();
  Discharge.reset ();
  Term.reset_intern ();
  Profile.reset ()

(** Run [f] on a new domain and wait for it. The domain starts with
    empty domain-local state (solver caches at their initial size, term
    intern table, absint memo, fixpoint stats, profile, fresh names);
    [fresh] can only clear that state, not shrink its tables, so the
    work and allocation of a check would depend on what ran before.
    The caller waits: one domain works at a time. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let count snap k =
  match List.assoc_opt k snap with Some (n, _, _) -> n | None -> 0

let secs snap k =
  match List.assoc_opt k snap with Some (_, t, _) -> t | None -> 0.

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let parse src =
  let p = Parser.parse_program src in
  Typeck.check_program p;
  p

let table1_programs =
  ("rmat", Workloads.rmat_flux)
  :: List.map
       (fun (b : Workloads.benchmark) -> (b.bm_name, b.bm_flux))
       Workloads.all

let shuffle seed l =
  let rng = Rng.make seed in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The Table-1 programs in a seeded order. Verdicts do not depend on
    the order; the engine's LPT schedule only breaks size ties by it. *)
let table1_sources seed = shuffle seed table1_programs

(* The Table-1 programs the traced run checks twice. *)
let table1_repeat_subset = [ "rmat"; "bsearch"; "dotprod"; "heapsort" ]

(* Pgen programs come from one fixed generator seed. Drawn per run
   seed, 240 programs took 19-34 s across five seeds, because a few
   programs take seconds each; no bound could hold that. The run seed
   orders the programs and draws the interpreter inputs. *)
let pgen_seed = 3

let pgen_program i = Pgen.gen (Rng.split (Rng.split (Rng.make pgen_seed) i) 0)

(** Correctness reference for an accepted Pgen program: it must run
    fault-free in the interpreter on inputs (drawn from the run seed)
    that satisfy its precondition. *)
let runs_clean ~seed i prog =
  Oracle.run_on_inputs (Rng.split (Rng.split (Rng.make seed) i) 1) prog = None

(* Checks shorter than this are sampled [short_samples] times (see
   [corpus]). *)
let short_check_s = 0.05
let short_samples = 5

(* Programs of one corpus run: about [seconds] of checking on the
   reference box, and never fewer than 200, so p95 has 10 samples
   above it. *)
let corpus_size ~seconds = max 200 (10 * int_of_float seconds)

(** The corpus in a seeded order: (case, (name, source)). *)
let corpus_sources ~seconds seed =
  shuffle seed
    (List.init (corpus_size ~seconds) (fun i ->
         (i, (Printf.sprintf "p%03d" i, pgen_program i))))

(* Requests of one recheck run: enough that p95 has 20 samples above
   it and the loop spans several seconds, so a slow spell of the box
   does not decide the run. *)
let recheck_requests ~seconds = max 400 (20 * int_of_float seconds)

(* Daemon priming: two connections at one domain each, in two fixed
   lanes of about equal length (one-domain times on the 2-core
   reference box: simplex 29 s; fft 12 s, kmp 12 s, kmeans 10 s; the
   other four 3 s together). *)
let prime_lanes =
  [ [ "simplex"; "rmat"; "bsearch"; "heapsort"; "dotprod" ]; [ "fft"; "kmp"; "kmeans" ] ]

(* Copies of a recheck hit sent in one batch (see [recheck]). *)
let hit_samples = 4

(* Pgen cases the recheck loop appends, after the corpus's. *)
let recheck_pgen_base = 1000

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let emit name unit v = metrics := (name, v, unit) :: !metrics

let print_result ~attempted ~failed =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let body =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " body)

(* ------------------------------------------------------------------ *)
(* Traced pipeline: each layer's public calls, timed from outside      *)
(* ------------------------------------------------------------------ *)

(** Per-layer accumulators of one program (or of a whole pass). Times
    are seconds; [words] are minor-heap words allocated inside the
    fixpoint calls. *)
type layers = {
  mutable parse : float;  (** Parser + Typeck *)
  mutable genv : float;  (** Genv.build: MIR lowering + signatures *)
  mutable gen : float;  (** Checker.prepare: constraint generation *)
  mutable fprep : float;  (** Solve.prepare *)
  mutable fslice : float;  (** Solve.run_slice + apply_slice + finish *)
  mutable finish : float;  (** Checker.finish *)
  mutable engine : float;  (** Engine.check_programs (recheck replay) *)
  mutable words : float;
}

let new_layers () =
  {
    parse = 0.;
    genv = 0.;
    gen = 0.;
    fprep = 0.;
    fslice = 0.;
    finish = 0.;
    engine = 0.;
    words = 0.;
  }

let add_layers (a : layers) (b : layers) =
  a.parse <- a.parse +. b.parse;
  a.genv <- a.genv +. b.genv;
  a.gen <- a.gen +. b.gen;
  a.fprep <- a.fprep +. b.fprep;
  a.fslice <- a.fslice +. b.fslice;
  a.finish <- a.finish +. b.finish;
  a.engine <- a.engine +. b.engine;
  a.words <- a.words +. b.words

(** [f ()] and its wall-clock seconds (0 when not [timed]). *)
let clock ~timed f =
  if timed then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else (f (), 0.)

(** Time inside timed calls; the calls are disjoint. *)
let layer_total l =
  l.parse +. l.genv +. l.gen +. l.fprep +. l.fslice +. l.finish +. l.engine

(** One program through the pipeline the engine runs per function
    ([Engine.check_split] at one domain): parse, build the global
    environment, generate constraints, solve the SCC slices level by
    level, map verdicts back. With [timed = false] no clock is read, so
    the same pass measures the cost of the timers; allocation is
    counted either way. Returns whether every function verified. *)
let trace_program ~timed (l : layers) src : bool =
  let clock f = clock ~timed f in
  (* the allocation window holds nothing but [f], so the word count is
     the same whether or not the clock is read *)
  let fix f =
    let t0 = if timed then now () else 0. in
    let w0 = Gc.minor_words () in
    let r = f () in
    let w1 = Gc.minor_words () in
    let dt = if timed then now () -. t0 else 0. in
    l.words <- l.words +. (w1 -. w0);
    (r, dt)
  in
  let prog, dt = clock (fun () -> parse src) in
  l.parse <- l.parse +. dt;
  let genv, dt = clock (fun () -> Genv.build prog) in
  l.genv <- l.genv +. dt;
  let fns =
    List.filter_map
      (fun (fd : Ast.fn_def) ->
        if fd.fn_trusted then None
        else Option.map (fun b -> (fd, b)) (Genv.find_body genv fd.fn_name))
      (Ast.program_fns prog)
  in
  let preps =
    List.map
      (fun ((fd : Ast.fn_def), body) ->
        let p, dt = clock (fun () -> Checker.prepare genv fd body) in
        l.gen <- l.gen +. dt;
        if Checker.prepared_early p then (fd, p, None)
        else
          let sp, dt =
            fix (fun () ->
                Profile.with_fn fd.fn_name @@ fun () ->
                Solve.prepare ~kvars:(Checker.prepared_kvars p)
                  (Checker.prepared_clauses p))
          in
          l.fprep <- l.fprep +. dt;
          (fd, p, Some sp))
      fns
  in
  let max_level =
    List.fold_left
      (fun m (_, _, sp) ->
        match sp with
        | None -> m
        | Some sp ->
            let m = ref m in
            for s = 0 to Solve.slice_count sp - 1 do
              m := max !m (Solve.slice_level sp s)
            done;
            !m)
      (-1) preps
  in
  for level = 0 to max_level do
    List.iter
      (fun ((fd : Ast.fn_def), _, sp) ->
        match sp with
        | None -> ()
        | Some sp ->
            for s = 0 to Solve.slice_count sp - 1 do
              if Solve.slice_level sp s = level then begin
                let (), dt =
                  fix (fun () ->
                      Profile.with_fn fd.fn_name @@ fun () ->
                      Solve.apply_slice sp (Solve.run_slice sp s))
                in
                l.fslice <- l.fslice +. dt
              end
            done)
      preps
  done;
  List.map
    (fun (_, p, sp) ->
      let res =
        Option.map
          (fun sp ->
            let r, dt = fix (fun () -> Solve.finish sp) in
            l.fslice <- l.fslice +. dt;
            r)
          sp
      in
      let rep, dt = clock (fun () -> Checker.finish p res) in
      l.finish <- l.finish +. dt;
      Checker.fn_ok rep)
    preps
  |> List.for_all Fun.id

type snapshot = (string * (int * float * bool)) list

let sum_snaps (snaps : snapshot list) : snapshot =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, (n, t, tm)) ->
         let n0, t0, _ =
           Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0., tm)
         in
         Hashtbl.replace tbl k (n0 + n, t0 +. t, tm)))
    snaps;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** One program's (or request sequence's) share of a pass. *)
type row = {
  rw_name : string;
  rw_wall : float;
  rw_layers : layers;
  rw_snap : snapshot;  (** its profile: the profile is reset per row *)
  rw_iters : int;  (** fixpoint iterations (not a profile cell) *)
  rw_ok : bool;
}

(** The counters that must repeat exactly across one-domain passes. *)
let det_counts (r : row) =
  [
    ("solver.queries", count r.rw_snap "solver.queries");
    ("fixpoint.weaken_checks", count r.rw_snap "fixpoint.weaken_checks");
    ("absint.discharged", count r.rw_snap "absint.discharged");
    ("fixpoint.alloc_words", int_of_float r.rw_layers.words);
  ]

(** One program, cold, through the traced pipeline. *)
let trace_row ~timed (name, src) : row =
  on_fresh_domain @@ fun () ->
  let l = new_layers () in
  let t0 = now () in
  let ok = trace_program ~timed l src in
  let wall = now () -. t0 in
  {
    rw_name = name;
    rw_wall = wall;
    rw_layers = l;
    rw_snap = Profile.snapshot ();
    rw_iters = (Solve.stats ()).iterations;
    rw_ok = ok;
  }

(** A one-domain pass over [srcs], each program cold and timed; the
    programs [again] selects run a second time right after, untimed,
    for the repeat check. Returns the timed rows and the repeats. *)
let trace_pass ~again srcs : row list * row list =
  let pairs =
    List.map
      (fun ((name, _) as p) ->
        let a = trace_row ~timed:true p in
        (a, if again name then Some (trace_row ~timed:false p) else None))
      srcs
  in
  (List.map fst pairs, List.filter_map snd pairs)

(** Compare the rows of the untimed pass [b] with the same rows of the
    timed pass [a]: the counts must repeat exactly. Returns whether
    they did and the timers' overhead on those rows. *)
let repeat_check (a : row list) (b : row list) =
  let same =
    List.for_all
      (fun rb ->
        let ra = List.find (fun r -> r.rw_name = rb.rw_name) a in
        let ca = det_counts ra and cb = det_counts rb in
        List.iter2
          (fun (k, x) (_, y) ->
            if x <> y then
              Printf.eprintf "pb: %s: %s drifted: %d vs %d\n" rb.rw_name k x y)
          ca cb;
        ca = cb && ra.rw_ok = rb.rw_ok)
      b
  in
  let wall rows =
    fsum
      (List.filter_map
         (fun r ->
           if List.exists (fun rb -> rb.rw_name = r.rw_name) b then Some r.rw_wall
           else None)
         rows)
  in
  (same, share (wall a) (wall b) -. 1.)

(* Per-layer metrics shared by every workload's traced run. Layers a
   workload does not reach read 0. *)
let emit_layers ?fixpoint_s (a : row list) ~repeat ~overhead =
  let l = new_layers () in
  List.iter (fun r -> add_layers l r.rw_layers) a;
  let s = sum_snaps (List.map (fun r -> r.rw_snap) a) in
  let solver_s = secs s "solver.solve_s" in
  let fix_s = Option.value fixpoint_s ~default:(l.fprep +. l.fslice) in
  emit "syntax.parse_s" "s" l.parse;
  emit "check.genv_s" "s" l.genv;
  emit "check.gen_s" "s" l.gen;
  emit "check.finish_s" "s" l.finish;
  emit "fixpoint.prepare_s" "s" l.fprep;
  emit "fixpoint.slice_s" "s" (fix_s -. l.fprep);
  emit "fixpoint.self_s" "s" (fix_s -. solver_s);
  emit "fixpoint.alloc_mwords" "Mwords" (l.words /. 1e6);
  let c k = float_of_int (count s k) in
  emit "fixpoint.weaken_checks" "count" (c "fixpoint.weaken_checks");
  emit "fixpoint.iterations" "count"
    (float_of_int (List.fold_left (fun n r -> n + r.rw_iters) 0 a));
  emit "fixpoint.reweaken_skipped" "count" (c "fixpoint.reweaken_skipped");
  emit "fixpoint.scc_count" "count" (c "fixpoint.scc_count");
  emit "solver.solve_s" "s" solver_s;
  emit "solver.dpll_s" "s" (secs s "solver.dpll_s");
  emit "solver.elab_s" "s" (secs s "solver.elab_s");
  emit "solver.queries" "count" (c "solver.queries");
  emit "solver.cache_hit_rate" "ratio" (share (c "solver.cache_hits") (c "solver.queries"));
  emit "solver.theory_checks" "count" (c "solver.theory_checks");
  let d = c "absint.discharged" and f = c "absint.fallthrough" in
  emit "absint.discharged" "count" d;
  emit "absint.fallthrough" "count" f;
  emit "absint.discharge_rate" "ratio" (share d (d +. f));
  emit "trace.counts_repeat" "bool" (if repeat then 1. else 0.);
  emit "trace.coverage" "share"
    (share (layer_total l) (fsum (List.map (fun r -> r.rw_wall) a)));
  emit "trace.overhead" "share" overhead

(** Per-program rows of the Table-1 programs (0 for programs a workload
    does not check). *)
let emit_program_rows (a : row list) =
  List.iter
    (fun (name, _) ->
      let l, d =
        match List.find_opt (fun r -> r.rw_name = name) a with
        | Some r -> (r.rw_layers, r.rw_snap)
        | None -> (new_layers (), [])
      in
      let solver_s = secs d "solver.solve_s" in
      emit (name ^ ".verify_s") "s" (layer_total l);
      emit (name ^ ".solver.solve_s") "s" solver_s;
      emit (name ^ ".fixpoint.self_s") "s" (l.fprep +. l.fslice -. solver_s);
      emit (name ^ ".solver.queries") "count" (float_of_int (count d "solver.queries"));
      emit (name ^ ".fixpoint.alloc_mwords") "Mwords" (l.words /. 1e6))
    table1_programs

let emit_engine ?(warm_ms = 0.) ?(overhead_ms = 0.) ?(memcache = 0)
    (snap : snapshot) =
  let c k = float_of_int (count snap k) in
  emit "engine.warm_check_ms" "ms" warm_ms;
  emit "engine.cache_hits" "count" (c "engine.cache_hits");
  emit "engine.cache_misses" "count" (c "engine.cache_misses");
  emit "cache.mem_hits" "count" (c "cache.mem_hits");
  emit "cache.disk_hits" "count" (c "cache.disk_hits");
  emit "server.overhead_ms" "ms" overhead_ms;
  emit "server.memcache_entries" "count" (float_of_int memcache)

(* ------------------------------------------------------------------ *)
(* Files and set-up                                                    *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* Set-ups per table1/corpus run: each takes tens of milliseconds, so
   one reading is at the mercy of a single slow spell. *)
let setup_runs = 31

(** [k] set-ups of [f], reporting the median seconds. *)
let setup_median k f =
  let times =
    List.init k (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (f ()));
        now () -. t0)
  in
  median times

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 ~seed ~seconds ~trace =
  let setup () =
    let srcs = table1_sources seed in
    (srcs, List.map (fun (_, s) -> parse s) srcs)
  in
  let setup_s = setup_median setup_runs setup in
  let srcs, progs = setup () in
  let n = List.length progs in
  if not trace then begin
    (* cold batches until [seconds] are used up; at least one *)
    let t_end = now () +. seconds in
    let rec batches acc =
      fresh ();
      Gc.compact ();
      let c0 = self_cpu_s () and t0 = now () in
      let runs = Engine.check_programs { Engine.jobs; cache_dir = None } progs in
      let wall = now () -. t0 and cpu = self_cpu_s () -. c0 in
      let ok = List.filter Engine.run_ok runs |> List.length in
      let times =
        List.map
          (fun (r : Engine.run) ->
            fsum (List.map (fun (o : Engine.fn_outcome) -> o.fo_report.fr_time) r.run_fns))
          runs
      in
      let acc = (wall, cpu, ok, times) :: acc in
      if now () < t_end then batches acc else acc
    in
    let bs = batches [] in
    let ok = List.fold_left (fun a (_, _, k, _) -> a + k) 0 bs in
    let attempted = n * List.length bs in
    let lats = List.concat_map (fun (_, _, _, t) -> t) bs in
    emit "setup_s" "s" setup_s;
    emit "verify_s" "s" (median (List.map (fun (w, _, _, _) -> w) bs));
    emit "cpu_s" "s" (median (List.map (fun (_, c, _, _) -> c) bs));
    emit "latency_p50_ms" "ms" (1000. *. quantile 0.5 lats);
    emit "latency_p95_ms" "ms" (1000. *. quantile 0.95 lats);
    emit "peak_rss_mb" "MiB" (peak_rss_mb (Unix.getpid ()));
    emit "accepted_share" "share" (share (float_of_int ok) (float_of_int attempted));
    Printf.printf "table1: %d batch(es) of %d programs, %d verified\n" (List.length bs) n ok;
    (attempted, attempted - ok)
  end
  else begin
    (* The untimed repeat covers the small programs only: all eight
       twice at one domain would not fit run.py's harness timeout. Each
       program starts cold, so its counts do not depend on the seed and
       the large ones repeat across traced runs. *)
    let a, b =
      trace_pass ~again:(fun n -> List.mem n table1_repeat_subset) srcs
    in
    let repeat, overhead = repeat_check a b in
    (* No pooled or cached run here: next to the one-domain pass it
       would not fit run.py's harness timeout on a loaded box. The
       engine and server layers are measured on recheck. *)
    emit_layers a ~repeat ~overhead;
    emit_program_rows a;
    emit_engine [];
    let oks = List.map (fun r -> r.rw_ok) (a @ b) in
    let failed = List.length (List.filter not oks) + if repeat then 0 else 1 in
    Printf.printf "table1 traced: one-domain %.2fs\n"
      (fsum (List.map (fun r -> r.rw_wall) a));
    List.iter (fun r -> Printf.printf "  %-9s %8.3fs\n" r.rw_name r.rw_wall) a;
    (List.length oks + 1, failed)
  end

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)
(* ------------------------------------------------------------------ *)

let corpus ~seed ~seconds ~trace =
  let setup () =
    let cases = corpus_sources ~seconds seed in
    (cases, List.map (fun (_, (_, s)) -> parse s) cases)
  in
  let setup_s = setup_median setup_runs setup in
  let cases, progs = setup () in
  let srcs = List.map snd cases in
  let gate oks =
    (* accepted programs must run clean; rejected ones are not judged *)
    List.fold_left2
      (fun (acc, bad) ok ((i, _), prog) ->
        if ok then (acc + 1, if runs_clean ~seed i prog then bad else bad + 1)
        else (acc, bad))
      (0, 0) oks
      (List.combine cases progs)
  in
  if not trace then begin
    let check (_, src) =
      (* cold caches and a compacted heap, outside the timing *)
      fresh ();
      Gc.compact ();
      let c = self_cpu_s () in
      let t = now () in
      (* one domain: a one-function program leaves the pool nothing to
         balance, and spawning workers per slice level would only add
         noise *)
      let r = Engine.check_source { Engine.jobs = 1; cache_dir = None } src in
      (now () -. t, self_cpu_s () -. c, Engine.run_ok r)
    in
    (* A program whose check took under [short_check_s] is checked
       [short_samples - 1] more times right away, each cold, and counts
       the median of its samples. The box has slow and fast spells of a
       few seconds: a short check's samples share one spell, and the
       programs, in their seeded order, spread over the whole run, so
       the percentiles average over its spells. (Extra samples taken in
       later passes would all fall into a few short windows at the
       end, and a best-of-k would report the fastest of them.) *)
    let samples =
      List.map
        (fun src ->
          let ((l, _, _) as first) = check src in
          if l >= short_check_s then [ first ]
          else first :: List.init (short_samples - 1) (fun _ -> check src))
        srcs
    in
    let med f xs = median (List.map f xs) in
    let lats = List.map (med (fun (l, _, _) -> l)) samples in
    let wall = fsum lats in
    let cpu = fsum (List.map (med (fun (_, c, _) -> c)) samples) in
    let verdict xs = match xs with (_, _, o) :: _ -> o | [] -> false in
    let oks = List.map verdict samples in
    (* a verdict that changes between samples is a failure *)
    let unstable =
      List.length
        (List.filter
           (fun xs -> List.exists (fun (_, _, o) -> o <> verdict xs) xs)
           samples)
    in
    let accepted, bad = gate oks in
    let n = List.length srcs in
    emit "setup_s" "s" setup_s;
    emit "verify_s" "s" wall;
    emit "cpu_s" "s" cpu;
    emit "latency_p50_ms" "ms" (1000. *. quantile 0.5 lats);
    emit "latency_p95_ms" "ms" (1000. *. quantile 0.95 lats);
    emit "peak_rss_mb" "MiB" (peak_rss_mb (Unix.getpid ()));
    emit "accepted_share" "share" (share (float_of_int accepted) (float_of_int n));
    Printf.printf
      "corpus: %d programs (%d latency samples, medians of %d checks), %d accepted\n" n
      (List.length lats) (List.length (List.concat samples)) accepted;
    (n, bad + unstable)
  end
  else begin
    let a, b = trace_pass ~again:(fun _ -> true) srcs in
    let repeat, overhead = repeat_check a b in
    emit_layers a ~repeat ~overhead;
    emit_program_rows [];
    emit_engine [];
    let accepted, bad = gate (List.map (fun r -> r.rw_ok) a) in
    Printf.printf "corpus traced: %d programs, %d accepted, one-domain %.2fs\n"
      (List.length srcs) accepted
      (fsum (List.map (fun r -> r.rw_wall) a));
    (List.length srcs + 1, bad + if repeat then 0 else 1)
  end

(* ------------------------------------------------------------------ *)
(* recheck                                                             *)
(* ------------------------------------------------------------------ *)

(** Insert a comment or a blank line before a seeded top-level item:
    the program's content (and every cache fingerprint) is unchanged,
    only spans move. *)
let span_edit rng i src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let starts_item l =
    List.exists
      (fun p -> String.starts_with ~prefix:p l)
      [ "#["; "fn "; "pub fn "; "impl"; "struct "; "pub struct " ]
  in
  let cands =
    List.filter
      (fun k ->
        starts_item lines.(k)
        && (k = 0 || not (String.starts_with ~prefix:"#[" lines.(k - 1))))
      (List.init (Array.length lines) Fun.id)
  in
  let at = if cands = [] then 0 else List.nth cands (Rng.int rng (List.length cands)) in
  let edit = if Rng.bool rng then Printf.sprintf "// edit %d" i else "" in
  String.concat "\n"
    (List.concat
       (List.mapi (fun k l -> if k = at then [ edit; l ] else [ l ]) (Array.to_list lines)))

(** A Pgen program's function [f], renamed to [name]. *)
let rename_fn src name =
  let needle = "fn f(" in
  let rec find i =
    if String.sub src i (String.length needle) = needle then i else find (i + 1)
  in
  let k = find 0 in
  String.sub src 0 k ^ "fn " ^ name ^ "("
  ^ String.sub src (k + String.length needle)
      (String.length src - k - String.length needle)

type req = {
  rq_file : string;
  rq_src : string;
  rq_fresh : (string * int) option;  (** Pgen source and its case seed *)
  rq_code : int;
  rq_out : string;
  rq_err : string;
  rq_lat : float;  (** client round trip, wall-clock *)
  rq_cpu : float;  (** daemon on-CPU time for the request *)
}

let read_response fd =
  match Protocol.read_frame fd with
  | Protocol.Frame p -> (
      match Protocol.decode_response p with
      | Ok r -> r
      | Error e -> failwith ("pb: bad response: " ^ e))
  | Protocol.Eof | Protocol.Bad _ -> failwith "pb: daemon closed the connection"

let roundtrip fd req =
  Protocol.write_frame fd (Protocol.encode_request req);
  read_response fd

(* Footers count cache hits, which differ between the daemon and a
   fresh in-process run over the same cache; everything else must
   match byte for byte. *)
let normalize out =
  String.split_on_char '\n' out
  |> List.map (fun l ->
         match String.rindex_opt l '(' with
         | Some k
           when String.starts_with ~prefix:"flux: " l
                && String.ends_with ~suffix:"from cache)" l ->
             String.trim (String.sub l 0 k)
         | _ -> l)
  |> String.concat "\n"

let recheck ~seed ~seconds ~trace ~work ~flux =
  let sock = Filename.concat work "d.sock" in
  let cache = Filename.concat work "cache" in
  (* Requests run at one domain: a request's work then stays on the
     session's thread, where [threads_cpu] sees all of it (pool
     workers exit with their CPU time), and a one-function miss leaves
     a pool nothing to balance. *)
  let opts =
    { (Exec.default_opts Exec.Flux_check) with Exec.jobs = 1; cache_dir = cache }
  in
  let check file src =
    Protocol.Check { opts; file; source = Some src; deadline_ms = None }
  in
  (* set-up: a fresh daemon on an empty cache, primed with Table 1 *)
  let t0 = now () in
  ignore (fresh_dir cache);
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process flux
      [| flux; "daemon"; "start"; "--foreground"; "--socket"; sock |]
      null null null
  in
  Unix.close null;
  let stopped = ref false in
  let stop fd =
    if not !stopped then begin
      stopped := true;
      (match fd with
      | Some fd ->
          (try ignore (roundtrip fd Protocol.Shutdown) with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      let deadline = now () +. 10. in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () < deadline ->
            Unix.sleepf 0.05;
            reap ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
        | _ -> ()
      in
      reap ()
    end
  in
  let fd = ref None in
  Fun.protect ~finally:(fun () -> stop !fd) @@ fun () ->
  if not (Daemon.wait_for_socket sock ~timeout_s:30.) then
    failwith "pb: fluxd did not come up";
  let conn = Option.get (Daemon.try_connect sock) in
  fd := Some conn;
  let result file src fresh ~t ~c = function
    | Protocol.Result { code; out; err } ->
        {
          rq_file = file;
          rq_src = src;
          rq_fresh = fresh;
          rq_code = code;
          rq_out = out;
          rq_err = err;
          rq_lat = now () -. t;
          rq_cpu =
            (if c = [] then 0.
             else begin
               wait_idle pid;
               cpu_between c (threads_cpu pid)
             end);
        }
    | Protocol.Info _ | Protocol.Error _ -> failwith "pb: daemon refused a check"
  in
  let send file src fresh =
    let c = threads_cpu pid and t = now () in
    result file src fresh ~t ~c (roundtrip conn (check file src))
  in
  (* [hit_samples] copies of one request written at once, so the daemon
     answers them back to back: their answers and its mean on-CPU time
     per answer. *)
  let send_batch file src =
    let c = threads_cpu pid and t = now () in
    let frame = Protocol.encode_request (check file src) in
    for _ = 1 to hit_samples do
      Protocol.write_frame conn frame
    done;
    let rs = List.init hit_samples (fun _ -> read_response conn) in
    wait_idle pid;
    let cpu = cpu_between c (threads_cpu pid) /. float_of_int hit_samples in
    (List.map (result file src None ~t ~c:[]) rs, cpu)
  in
  (* Priming: the Table-1 programs in [prime_lanes]; a connection
     sends its next program as soon as the last one is answered. *)
  let primed =
    let second = Option.get (Daemon.try_connect sock) in
    let queue = Hashtbl.create 2 in
    List.iter2
      (fun fd lane ->
        Hashtbl.replace queue fd
          (List.map (fun n -> (n, List.assoc n table1_programs)) lane))
      [ conn; second ] prime_lanes;
    let pending = Hashtbl.create 2 and done_ = ref [] in
    let start fd =
      match Hashtbl.find queue fd with
      | [] -> ()
      | (name, src) :: rest ->
          Hashtbl.replace queue fd rest;
          let file = name ^ ".rs" in
          Protocol.write_frame fd
            (Protocol.encode_request (check file src));
          Hashtbl.replace pending fd (file, src, now ())
    in
    start conn;
    start second;
    while Hashtbl.length pending > 0 do
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) pending [] in
      let ready, _, _ = Unix.select fds [] [] (-1.) in
      List.iter
        (fun fd ->
          let file, src, t = Hashtbl.find pending fd in
          Hashtbl.remove pending fd;
          done_ := result file src None ~t ~c:[] (read_response fd) :: !done_;
          start fd)
        ready
    done;
    Unix.close second;
    List.rev !done_
  in
  let setup_s = now () -. t0 in
  (* The closed loop: [recheck_requests] requests. Every fifth one
     appends the next fresh Pgen function (a miss) to the next Table-1
     program in turn, the same for every seed. The others are
     span-only edits (hits) of a seeded line of the Table-1 sources, so
     a program draws edits in proportion to its size: the three large
     ones (fft, kmeans, simplex: two thirds of the lines) take about
     half of all requests, and p50 falls among their hits. (Visiting
     the eight programs equally put p50 on the gap between the hits of
     the five small programs and those of the three large ones, where
     it jumped between the two levels from run to run.) A hit is sent
     once, then [hit_samples] more times in one batch ([send_batch]);
     its latency is the daemon's on-CPU time per answer in the batch,
     which it answers back to back. The batches spread over the whole
     loop, so the box's slow and fast spells of a few seconds average
     out (resending the hits in passes after the loop packed those
     samples into a few seconds that then decided p50). A miss is sent
     once: sent again, it would be a hit. *)
  let rng = Rng.make seed in
  let cur = Array.of_list (List.map snd table1_programs) in
  let names = Array.of_list (List.map fst table1_programs) in
  let n_progs = Array.length cur in
  let lines = Array.map (fun src -> List.length (String.split_on_char '\n' src)) cur in
  let pick r =
    let rec go k r = if r < lines.(k) then k else go (k + 1) (r - lines.(k)) in
    go 0 (Rng.int r (Array.fold_left ( + ) 0 lines))
  in
  let cpu0 = proc_cpu_s pid in
  let t_start = now () in
  let rec loop i acc =
    if i >= recheck_requests ~seconds then List.rev acc
    else begin
      let q =
        if i mod 5 = 4 then begin
          let j = i / 5 in
          let k = j mod n_progs in
          let case = recheck_pgen_base + j in
          let src = pgen_program case in
          let fn = rename_fn src (Printf.sprintf "fresh_%d" j) in
          (send (names.(k) ^ ".rs") (cur.(k) ^ "\n\n" ^ fn ^ "\n") (Some (src, case)), [])
        end
        else begin
          let r = Rng.split rng i in
          let k = pick (Rng.split r 1) in
          cur.(k) <- span_edit r i cur.(k);
          let file = names.(k) ^ ".rs" in
          let q = send file cur.(k) None in
          let reps, cpu = send_batch file cur.(k) in
          ({ q with rq_cpu = cpu }, reps)
        end
      in
      loop (i + 1) (q :: acc)
    end
  in
  let sent = loop 0 [] in
  let wall = now () -. t_start in
  let cpu = proc_cpu_s pid -. cpu0 in
  (* A request's latency is the daemon's on-CPU time for it: on a
     shared box, steal and run-queue waits stretch a millisecond
     request by multiples, so wall-clock p50/p95 spread by 40-60%
     from run to run (the round trip stays in server.overhead_ms).
     A hit counts its batch's time per answer (see [loop]); every
     answer in the batch must match the single send's. *)
  let reqs = List.map fst sent in
  let replay_bad =
    List.length
      (List.filter
         (fun (q, r) ->
           r.rq_code <> q.rq_code || normalize r.rq_out <> normalize q.rq_out)
         (List.concat_map (fun (q, reps) -> List.map (fun r -> (q, r)) reps) sent))
  in
  if replay_bad > 0 then
    Printf.eprintf "pb: %d repeated hits answered differently\n" replay_bad;
  (* Correctness: same output as the in-process path on the same cache
     (the daemon idles); Table-1 functions all verify; accepted fresh
     functions run clean. *)
  let all = primed @ reqs in
  let bad =
    List.filter
      (fun q ->
        let o = Exec.run opts ~file:q.rq_file ~read:(fun () -> q.rq_src) in
        let same =
          o.Exec.code = q.rq_code
          && normalize o.Exec.out = normalize q.rq_out
          && o.Exec.err = q.rq_err
        in
        let truth =
          match q.rq_fresh with
          | None -> q.rq_code = 0
          | Some (orig, case) ->
              q.rq_code <> 0
              || runs_clean ~seed case (parse orig)
        in
        if not same then
          Printf.eprintf
            "pb: %s: daemon and in-process output differ\n\
             --- daemon (%d)\n%s%s--- in-process (%d)\n%s%s"
            q.rq_file q.rq_code q.rq_out q.rq_err o.Exec.code o.Exec.out o.Exec.err;
        if not truth then Printf.eprintf "pb: %s: wrong verdict\n" q.rq_file;
        not (same && truth))
      all
  in
  let lats = List.map (fun q -> q.rq_cpu) reqs in
  let rss = peak_rss_mb pid in
  let info =
    match roundtrip conn Protocol.Metrics with
    | Protocol.Info j -> j
    | _ -> failwith "pb: no metrics"
  in
  stop !fd;
  let num path =
    List.fold_left
      (fun j k -> Option.bind j (Json.member k))
      (Some info) path
    |> Fun.flip Option.bind Json.get_float
    |> Option.value ~default:0.
  in
  (* the daemon's own profile counters (engine and cache tiers) *)
  let daemon_counters : snapshot =
    match Json.member "counters" info with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) -> (k, (Option.value (Json.get_int v) ~default:0, 0., false)))
          kvs
    | _ -> []
  in
  let accepted = List.length (List.filter (fun q -> q.rq_code = 0) reqs) in
  let n = List.length reqs in
  if not trace then begin
    emit "setup_s" "s" setup_s;
    (* the daemon's on-CPU time over the loop's verdicts (see above) *)
    emit "verify_s" "s" (fsum (List.map (fun q -> q.rq_cpu) reqs));
    emit "cpu_s" "s" cpu;
    emit "latency_p50_ms" "ms" (1000. *. quantile 0.5 lats);
    emit "latency_p95_ms" "ms" (1000. *. quantile 0.95 lats);
    emit "peak_rss_mb" "MiB" rss;
    emit "accepted_share" "share" (share (float_of_int accepted) (float_of_int n));
    Printf.printf
      "recheck: %d requests in %.2fs wall-clock (%d latency samples, %d \
       fresh functions), %d verified\n"
      n wall (List.length lats)
      (List.length (List.filter (fun q -> q.rq_fresh <> None) reqs))
      accepted;
    (List.length all, List.length bad + replay_bad)
  end
  else begin
    (* In-process replay of the request sequence at one domain on the
       cache the daemon filled: parse, lower, then the engine's warm
       path (rejected fresh functions are solved again). The fixpoint
       runs inside the engine here, so its time is read from the
       profile and its allocation is not counted. *)
    let replay ~timed =
      on_fresh_domain @@ fun () ->
      let l = new_layers () in
      let clock f = clock ~timed f in
      let warm = ref [] in
      let t0 = now () in
      let oks =
        List.map
          (fun q ->
            let prog, dt = clock (fun () -> parse q.rq_src) in
            l.parse <- l.parse +. dt;
            let _, dt = clock (fun () -> Genv.build prog) in
            l.genv <- l.genv +. dt;
            let runs, dt =
              clock (fun () ->
                  Engine.check_programs
                    { Engine.jobs = 1; cache_dir = Some cache }
                    [ prog ])
            in
            l.engine <- l.engine +. dt;
            if q.rq_fresh = None then warm := dt :: !warm;
            List.for_all Engine.run_ok runs)
          all
      in
      let row =
        {
          rw_name = "replay";
          rw_wall = now () -. t0;
          rw_layers = l;
          rw_snap = Profile.snapshot ();
          rw_iters = (Solve.stats ()).iterations;
          rw_ok = true;
        }
      in
      (row, oks, !warm)
    in
    let a, oka, warm = replay ~timed:true in
    let b, okb, _ = replay ~timed:false in
    let repeat, overhead = repeat_check [ a ] [ b ] in
    (* the in-process engine must agree with every daemon verdict *)
    let agree = oka = okb && oka = List.map (fun q -> q.rq_code = 0) all in
    emit_layers
      ~fixpoint_s:(secs a.rw_snap "fixpoint.solve_s")
      [ a ] ~repeat ~overhead;
    emit_program_rows [];
    (* round trips of the requests sent one at a time; the daemon's p50
       also counts the batched copies, which cost what a hit costs *)
    let client_p50 = 1000. *. median (List.map (fun q -> q.rq_lat) all) in
    emit_engine
      ~warm_ms:(1000. *. median warm)
      ~overhead_ms:(client_p50 -. num [ "latency"; "p50_ms" ])
      ~memcache:(int_of_float (num [ "memcache_entries" ]))
      daemon_counters;
    Printf.printf "recheck traced: %d requests replayed in %.2fs\n"
      (List.length all) a.rw_wall;
    ( List.length all + 1,
      List.length bad + replay_bad + if repeat && agree then 0 else 1 )
  end

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let work = ref "" and flux = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory (created)");
      ("--flux", Arg.Set_string flux, "EXE the flux binary (recheck)");
    ]
    (fun w -> workload := w)
    "pb.exe WORKLOAD --seed N --seconds S --trace 0|1 --work DIR --flux EXE";
  let trace = !trace = 1 in
  let work = fresh_dir !work in
  let attempted, failed =
    Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
    match !workload with
    | "table1" -> table1 ~seed:!seed ~seconds:!seconds ~trace
    | "corpus" -> corpus ~seed:!seed ~seconds:!seconds ~trace
    | "recheck" -> recheck ~seed:!seed ~seconds:!seconds ~trace ~work ~flux:!flux
    | w ->
        Printf.eprintf "pb: unknown workload %S\n" w;
        exit 2
  in
  print_result ~attempted ~failed;
  if failed > 0 then exit 1
