module Clock = Clock
module Json = Json
module Metrics = Metrics
module Trace = Trace
module Provenance = Provenance
module Export = Export

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  provenance : Provenance.t;
  t0 : float;
  spans : bool;
}

let create ?(spans = true) () =
  {
    trace = Trace.create ();
    metrics = Metrics.create ();
    provenance = Provenance.create ();
    t0 = Clock.now ();
    spans;
  }

let current : t option Atomic.t = Atomic.make None
let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let get () = Atomic.get current
let enabled () = Atomic.get current <> None

let with_collector t f =
  let previous = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current previous) f

let count ?(n = 1) name =
  match Atomic.get current with
  | None -> ()
  | Some c -> Metrics.count c.metrics name n

let gauge name v =
  match Atomic.get current with
  | None -> ()
  | Some c -> Metrics.gauge c.metrics name v

let observe ?buckets name v =
  match Atomic.get current with
  | None -> ()
  | Some c -> Metrics.observe ?buckets c.metrics name v

let record_provenance r =
  match Atomic.get current with
  | None -> ()
  | Some c -> Provenance.add c.provenance r

(* Per-domain stack of open span ids: parents nest naturally even when
   spans open on pool-worker domains. *)
let span_stack : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_span ?(attrs = []) ?attrs_after name f =
  match Atomic.get current with
  | None -> f ()
  | Some c when not c.spans -> f ()
  | Some c ->
      let stack = Domain.DLS.get span_stack in
      let parent = match !stack with [] -> None | p :: _ -> Some p in
      let id = Trace.fresh_id c.trace in
      let lane = (Domain.self () :> int) in
      let start = Clock.now () in
      stack := id :: !stack;
      let finish () =
        (stack := match !stack with _ :: rest -> rest | [] -> []);
        let late =
          match attrs_after with
          | None -> []
          | Some g -> ( try g () with _ -> [])
        in
        Trace.record c.trace
          {
            Trace.id;
            parent;
            name;
            lane;
            start_s = start -. c.t0;
            duration_s = Clock.elapsed start;
            attrs = attrs @ late;
          }
      in
      Fun.protect ~finally:finish f
