open Matrix

type t = {
  name : string;
  min_params : int;
  max_params : int;
  needs_period : bool;
  eval : params:float list -> period:int option -> float array -> float array;
}

let catalogue : (string, t) Hashtbl.t = Hashtbl.create 32

let register ~name ?(min_params = 0) ?(max_params = 0) ?(needs_period = false)
    eval =
  let name = String.lowercase_ascii name in
  if Hashtbl.mem catalogue name then
    invalid_arg ("Blackbox.register: duplicate operator " ^ name);
  Hashtbl.replace catalogue name
    { name; min_params; max_params; needs_period; eval }

let period_exn = function
  | Some p -> p
  | None -> invalid_arg "Blackbox: seasonal period required"

let () =
  register ~name:"stl_t" ~max_params:1 ~needs_period:true
    (fun ~params:_ ~period a -> Stats.Decompose.trend ~period:(period_exn period) a);
  register ~name:"stl_s" ~max_params:1 ~needs_period:true
    (fun ~params:_ ~period a ->
      Stats.Decompose.seasonal ~period:(period_exn period) a);
  register ~name:"stl_r" ~max_params:1 ~needs_period:true
    (fun ~params:_ ~period a ->
      Stats.Decompose.remainder ~period:(period_exn period) a);
  register ~name:"deseason" ~max_params:1 ~needs_period:true
    (fun ~params:_ ~period a ->
      Stats.Decompose.deseasonalize ~period:(period_exn period) a);
  register ~name:"trend_classical" ~max_params:1 ~needs_period:true
    (fun ~params:_ ~period a ->
      Stats.Decompose.trend ~method_:Stats.Decompose.Classical
        ~period:(period_exn period) a);
  register ~name:"ma" ~min_params:1 ~max_params:1 (fun ~params ~period:_ a ->
      match params with
      | [ w ] -> Stats.Moving.trailing_average ~window:(int_of_float w) a
      | _ -> invalid_arg "ma: expected exactly one window parameter");
  register ~name:"cumsum" (fun ~params:_ ~period:_ a -> Stats.Moving.cumsum a);
  register ~name:"diff" ~max_params:1 (fun ~params ~period:_ a ->
      let lag = match params with [ l ] -> int_of_float l | _ -> 1 in
      Stats.Moving.diff ~lag a);
  register ~name:"pct" ~max_params:1 (fun ~params ~period:_ a ->
      let lag = match params with [ l ] -> int_of_float l | _ -> 1 in
      Stats.Moving.pct_change ~lag a);
  register ~name:"ewma" ~min_params:1 ~max_params:1 (fun ~params ~period:_ a ->
      match params with
      | [ alpha ] -> Stats.Moving.ewma ~alpha a
      | _ -> invalid_arg "ewma: expected exactly one smoothing parameter");
  register ~name:"lintrend" (fun ~params:_ ~period:_ a ->
      Stats.Regression.fitted_line a);
  register ~name:"acf" ~min_params:1 ~max_params:1 (fun ~params ~period:_ a ->
      (* replaces every point with the series' autocorrelation at the
         given lag — a whole-series statistic broadcast back, like a
         rolling diagnostic panel would show *)
      match params with
      | [ lag ] ->
          let r = Stats.Descriptive.autocorrelation ~lag:(int_of_float lag) a in
          Array.map (fun _ -> r) a
      | _ -> invalid_arg "acf: expected exactly one lag parameter");
  register ~name:"zscore" (fun ~params:_ ~period:_ a ->
      if Array.length a = 0 then a
      else
        let m = Stats.Descriptive.mean a in
        let sd = Stats.Descriptive.stddev a in
        if sd = 0. then Array.map (fun _ -> 0.) a
        else Array.map (fun x -> (x -. m) /. sd) a)

let find name = Hashtbl.find_opt catalogue (String.lowercase_ascii name)

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) catalogue []
  |> List.sort String.compare

let default_period = function
  | Calendar.Year -> None
  | Calendar.Semester -> Some 2
  | Calendar.Quarter -> Some 4
  | Calendar.Month -> Some 12
  | Calendar.Week -> Some 52
  | Calendar.Day -> Some 7

let resolve_period t ~params ~freq =
  if not t.needs_period then Ok None
  else
    match params with
    | p :: _ -> Ok (Some (int_of_float p))
    | [] -> (
        match Option.bind freq default_period with
        | Some p -> Ok (Some p)
        | None ->
            Error
              (Printf.sprintf
                 "%s: no seasonal period given and none inferable from frequency"
                 t.name))

let apply_vector t ~params ~freq a =
  let n = List.length params in
  if n < t.min_params || n > t.max_params then
    Error
      (Printf.sprintf "%s: expected %d..%d parameters, got %d" t.name
         t.min_params t.max_params n)
  else
    match resolve_period t ~params ~freq with
    | Error _ as e -> e
    | Ok period -> (
        try Ok (t.eval ~params ~period a) with
        | Invalid_argument msg -> Error (t.name ^ ": " ^ msg))

let temporal_dim_index schema =
  let idxs =
    List.mapi (fun i d -> (i, d)) (Array.to_list schema.Schema.dims)
    |> List.filter (fun (_, d) -> Domain.is_temporal d.Schema.dim_domain)
  in
  match idxs with
  | [ (i, _) ] -> Ok i
  | [] -> Error "no temporal dimension"
  | _ -> Error "more than one temporal dimension"

let apply_cube t ~params c =
  let schema = Cube.schema c in
  match temporal_dim_index schema with
  | Error msg -> Error (Printf.sprintf "%s on %s: %s" t.name (Cube.name c) msg)
  | Ok tdim ->
      let n = Schema.arity schema in
      let other_idxs =
        Array.of_list (List.filter (fun i -> i <> tdim) (List.init n Fun.id))
      in
      (* Group tuples into slices by the non-temporal dimension values. *)
      let slices : (Tuple.t * Value.t) list Tuple.Table.t =
        Tuple.Table.create 16
      in
      Cube.iter
        (fun k v ->
          let slice_key = Tuple.project k other_idxs in
          let prev =
            Option.value ~default:[] (Tuple.Table.find_opt slices slice_key)
          in
          Tuple.Table.replace slices slice_key ((k, v) :: prev))
        c;
      let out = Cube.create schema in
      let err = ref None in
      let period_of_key k =
        match Tuple.get k tdim with
        | Value.Period p -> Some p
        | Value.Date d -> Some (Calendar.Period.day d)
        | Value.(Null | Bool _ | Int _ | Float _ | String _) -> None
      in
      Tuple.Table.iter
        (fun _slice_key tuples ->
          if !err = None then begin
            let pts =
              List.filter_map
                (fun (k, v) ->
                  match (period_of_key k, Value.to_float v) with
                  | Some p, Some f -> Some (p, f, k)
                  | _ -> None)
                tuples
              |> List.sort (fun (a, _, _) (b, _, _) -> Calendar.Period.compare a b)
            in
            let values = Array.of_list (List.map (fun (_, f, _) -> f) pts) in
            let freq =
              match pts with
              | (p, _, _) :: _ -> Some (Calendar.Period.freq p)
              | [] -> None
            in
            match apply_vector t ~params ~freq values with
            | Error msg -> err := Some msg
            | Ok result ->
                List.iteri
                  (fun i (_, _, k) ->
                    if not (Float.is_nan result.(i)) then
                      Cube.set out k (Value.Float result.(i)))
                  pts
          end)
        slices;
      (match !err with Some e -> Error e | None -> Ok out)
