(* Timing, percentiles, process facts and the result record shared by
   the three workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between closest ranks over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Samples strictly above the [p] percentile of [n] samples, reported
   beside each tail percentile: it needs ten to be meaningful. *)
let beyond n p = n - int_of_float (ceil (p *. float_of_int n))

(* Peak resident set (VmHWM) of a process, in MB. *)
let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.)
                else go ()
          in
          go ())

(* ----- host speed ----- *)

(* This process's CPU time, seconds: unlike wall time it leaves out the
   stretches the host takes the core away (steal) or another process
   runs on it. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A shared host's per-core speed also moves, by a third or more for
   seconds at a time, whatever runs on it.  A fixed reference kernel,
   timed every quarter second through a run, gives the local speed: an
   op's cost in refs is its time divided by the kernel's time around
   it, which a slow stretch of the host moves far less than the time
   itself.  The kernel does the kind of work the workloads do — an
   ordered map built and folded, a hash table of string keys — in about
   a millisecond. *)
module Kernel = struct
  module IM = Map.Make (Int)

  let keys = Array.init 2048 (fun i -> i * 7919 mod 2053)
  let names = Array.map string_of_int keys

  let run () =
    let m = Array.fold_left (fun m k -> IM.add k k m) IM.empty keys in
    let h = Hashtbl.create 64 in
    Array.iter (fun s -> Hashtbl.replace h s (String.length s)) names;
    IM.fold (fun _ v a -> a + v) m (Hashtbl.length h)

  (* The fastest of three runs, as (wall s, CPU s): a preemption or a
     GC slice in one run does not count. *)
  let sample () =
    let best = ref (infinity, infinity) in
    for _ = 1 to 3 do
      let t0 = now () and c0 = cpu () in
      ignore (Sys.opaque_identity (run ()));
      let w = now () -. t0 and c = cpu () -. c0 in
      if w < fst !best then best := (w, c)
    done;
    !best
end

let calibrate_every = 0.25

type speed = {
  mutable samples : (float * (float * float)) list;
      (** (instant, kernel (wall s, CPU s)), newest first *)
  mutable due : float;
}

let speed () = { samples = []; due = neg_infinity }

let calibrate sp =
  sp.samples <- (now (), Kernel.sample ()) :: sp.samples;
  sp.due <- now () +. calibrate_every

let tick sp = if now () >= sp.due then calibrate sp

(* The kernel's time around instant [t], by [clock] ([fst] wall, [snd]
   CPU): the mean of the samples just before and just after it. *)
let ref_at sp clock =
  let a = Array.of_list (List.rev sp.samples) in
  let n = Array.length a in
  fun t ->
    (* the last sample at or before [t], or -1 *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if fst a.(mid) <= t then search mid hi else search lo (mid - 1)
    in
    let i = if n = 0 || fst a.(0) > t then -1 else search 0 (n - 1) in
    (clock (snd a.(max 0 i)) +. clock (snd a.(min (n - 1) (i + 1)))) /. 2.

let kernel_ms sp = 1000. *. median (List.map (fun (_, (w, _)) -> w) sp.samples)

(* ----- closed-loop timing ----- *)

type run = {
  latencies : float list;  (** wall seconds, one per op *)
  costs : float list;  (** refs, one per op: CPU time over the kernel's *)
  ops : int;
  op_failures : int;
  wall : float;
  kernel_ms : float;  (** the reference kernel's median wall time *)
}

(* Run [op i] back to back for [seconds], and past them until
   [min_ops] ops have run so the tail percentile keeps ten samples
   beyond it (capped at four times the budget), sampling the host's
   speed between ops.  [op] returns whether its output checks passed. *)
let closed_loop ~seconds ~min_ops op =
  let sp = speed () in
  calibrate sp;
  let t0 = now () in
  let soft = t0 +. seconds and hard = t0 +. (4. *. seconds) in
  let lat = ref [] and n = ref 0 and bad = ref 0 in
  let rec go () =
    tick sp;
    let t = now () and c0 = cpu () in
    if (t < soft || !n < min_ops) && t < hard then begin
      let ok, dt = time (fun () -> op !n) in
      lat := (t, dt, cpu () -. c0) :: !lat;
      incr n;
      if not ok then incr bad;
      go ()
    end
  in
  go ();
  let wall = now () -. t0 in
  calibrate sp;
  let at = ref_at sp snd in
  {
    latencies = List.map (fun (_, dt, _) -> dt) !lat;
    costs = List.map (fun (t, dt, c) -> c /. at (t +. (dt /. 2.))) !lat;
    ops = !n;
    op_failures = !bad;
    wall;
    kernel_ms = kernel_ms sp;
  }

let latency_ms r p = 1000. *. percentile (sorted_of_list r.latencies) p
let cost r p = percentile (sorted_of_list r.costs) p

(* The guarded figures of a closed loop: ops per thousand refs of CPU
   time and the cost percentiles; then the wall-clock figures they
   stand for. *)
let speed_metrics r =
  [
    m "ops_per_kref" "ops/kref"
      (1000. *. float_of_int r.ops /. List.fold_left ( +. ) 0. r.costs);
    m "op_p50_ref" "ref" (cost r 0.5);
    m "op_p90_ref" "ref" (cost r 0.9);
  ]

let wall_metrics r =
  [
    m "ops_per_s" "ops/s" (float_of_int r.ops /. r.wall);
    m "op_p50_ms" "ms" (latency_ms r 0.5);
    m "op_p90_ms" "ms" (latency_ms r 0.9);
    m "kernel_ms" "ms" r.kernel_ms;
  ]

(* ----- results ----- *)

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named output checks *)
  end_to_end : metric list;  (** the untraced run's metrics *)
  per_layer : metric list;  (** the traced run's BENCHMARK.json metrics *)
  report : metric list;  (** every further figure, printed, not guarded *)
  notes : (string * string) list;  (** workload facts for the record *)
}

let correct o = o.failed = 0 && List.for_all snd o.checks

module J = Obs.Json

let metric_json ms =
  J.Obj
    (List.map
       (fun x -> (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit_) ]))
       ms)

(* Obs.Json prints integral floats without a fraction and non-finite
   numbers as null; every metric in the result line must be finite. *)
let result_line o ~trace =
  let metrics = if trace then o.per_layer else o.end_to_end in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct o));
         ("attempted", J.Num (float_of_int o.attempted));
         ("failed", J.Num (float_of_int o.failed));
         ("metrics", metric_json metrics);
       ])

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-34s %14.4f %s\n" x.name x.value x.unit_)
    ms
