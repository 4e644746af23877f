(* The statistical substrate: descriptive statistics, aggregation
   operators, moving windows, loess, regression, interpolation and
   seasonal decomposition. *)
open Helpers

let arr = Array.of_list

(* --- descriptive --- *)

let test_descriptive_known_values () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.check floats "mean" 5. (Stats.Descriptive.mean xs);
  Alcotest.check floats "stddev" 2. (Stats.Descriptive.stddev xs);
  Alcotest.check floats "median" 4.5 (Stats.Descriptive.median xs);
  Alcotest.check floats "min" 2. (Stats.Descriptive.min xs);
  Alcotest.check floats "max" 9. (Stats.Descriptive.max xs);
  Alcotest.check floats "sum" 40. (Stats.Descriptive.sum xs)

let test_descriptive_empty_rejected () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Descriptive.mean: empty input") (fun () ->
      ignore (Stats.Descriptive.mean [||]))

let test_autocorrelation () =
  (* a pure sine of period 12 has acf ~1 at lag 12, ~-1 at lag 6 *)
  let xs =
    Array.init 120 (fun i -> sin (2. *. Float.pi *. float_of_int i /. 12.))
  in
  Alcotest.(check bool) "lag 12 high" true
    (Stats.Descriptive.autocorrelation ~lag:12 xs > 0.85);
  Alcotest.(check bool) "lag 6 low" true
    (Stats.Descriptive.autocorrelation ~lag:6 xs < -0.85);
  Alcotest.check floats "lag 0" 1. (Stats.Descriptive.autocorrelation ~lag:0 xs);
  Alcotest.check floats "degenerate" 0.
    (Stats.Descriptive.autocorrelation ~lag:1 (Array.make 5 3.))

(* --- aggregates --- *)

let test_aggregate_known () =
  let bag = [ 3.; 1.; 2. ] in
  let check name aggr expected =
    Alcotest.check floats name expected (Stats.Aggregate.apply aggr bag)
  in
  check "sum" Stats.Aggregate.Sum 6.;
  check "avg" Stats.Aggregate.Avg 2.;
  check "min" Stats.Aggregate.Min 1.;
  check "max" Stats.Aggregate.Max 3.;
  check "count" Stats.Aggregate.Count 3.;
  check "median" Stats.Aggregate.Median 2.;
  check "product" Stats.Aggregate.Product 6.;
  check "first" Stats.Aggregate.First 3.;
  check "last" Stats.Aggregate.Last 2.

let test_aggregate_names_roundtrip () =
  List.iter
    (fun aggr ->
      Alcotest.(check bool)
        (Stats.Aggregate.to_string aggr)
        true
        (Stats.Aggregate.of_string (Stats.Aggregate.to_string aggr) = Some aggr))
    Stats.Aggregate.all

let prop_aggregate_bounds =
  QCheck.Test.make ~count:200 ~name:"min <= avg/median <= max"
    QCheck.(list_of_size Gen.(1 -- 30) (int_range (-500) 500))
    (fun xs ->
      let bag = List.map float_of_int xs in
      let v a = Stats.Aggregate.apply a bag in
      let lo = v Stats.Aggregate.Min and hi = v Stats.Aggregate.Max in
      let between x = lo -. 1e-9 <= x && x <= hi +. 1e-9 in
      between (v Stats.Aggregate.Avg) && between (v Stats.Aggregate.Median))

let prop_sum_count_avg =
  QCheck.Test.make ~count:200 ~name:"sum = count * avg"
    QCheck.(list_of_size Gen.(1 -- 30) (int_range (-500) 500))
    (fun xs ->
      let bag = List.map float_of_int xs in
      let v a = Stats.Aggregate.apply a bag in
      Float.abs (v Stats.Aggregate.Sum -. (v Stats.Aggregate.Count *. v Stats.Aggregate.Avg))
      < 1e-6)

(* --- moving windows --- *)

let test_moving_trailing () =
  Alcotest.check float_array "trailing w=2"
    [| 1.; 1.5; 2.5; 3.5 |]
    (Stats.Moving.trailing_average ~window:2 (arr [ 1.; 2.; 3.; 4. ]))

let test_moving_centered_odd () =
  Alcotest.check float_array "centered w=3"
    [| Float.nan; 2.; 3.; Float.nan |]
    (Stats.Moving.centered_average ~window:3 (arr [ 1.; 2.; 3.; 4. ]))

let test_moving_centered_even_2xw () =
  (* 2x4 MA of a linear series is exact in the interior. *)
  let xs = Array.init 8 float_of_int in
  let out = Stats.Moving.centered_average ~window:4 xs in
  Alcotest.check floats "interior exact" 2. out.(2);
  Alcotest.check floats "interior exact 2" 5. out.(5);
  Alcotest.(check bool) "edges nan" true (Float.is_nan out.(0) && Float.is_nan out.(7))

let test_moving_diff_and_pct () =
  Alcotest.check float_array "diff"
    [| Float.nan; 1.; 2.; 4. |]
    (Stats.Moving.diff (arr [ 1.; 2.; 4.; 8. ]));
  Alcotest.check float_array "pct"
    [| Float.nan; 100.; 100.; 100. |]
    (Stats.Moving.pct_change (arr [ 1.; 2.; 4.; 8. ]))

let test_moving_cumsum () =
  Alcotest.check float_array "cumsum" [| 1.; 3.; 6. |]
    (Stats.Moving.cumsum (arr [ 1.; 2.; 3. ]))

(* --- loess --- *)

let test_loess_fits_linear_exactly () =
  (* Locally linear regression reproduces a linear signal exactly. *)
  let xs = Array.init 20 (fun i -> (3. *. float_of_int i) +. 7.) in
  let smoothed = Stats.Loess.smooth ~span:7 xs in
  Array.iteri
    (fun i v -> Alcotest.check floats (Printf.sprintf "point %d" i) xs.(i) v)
    smoothed

let test_loess_tricube () =
  Alcotest.check floats "at zero" 1. (Stats.Loess.tricube 0.);
  Alcotest.check floats "outside" 0. (Stats.Loess.tricube 1.5);
  Alcotest.(check bool) "monotone" true
    (Stats.Loess.tricube 0.2 > Stats.Loess.tricube 0.8)

(* --- regression --- *)

(* Ordinary least squares: weighted, with unit weights. *)
let ols x y = Stats.Regression.wls ~weights:(Array.map (fun _ -> 1.) x) x y

let test_ols_recovers_line () =
  let x = Array.init 50 float_of_int in
  let y = Array.map (fun xi -> (2.5 *. xi) -. 4.) x in
  let fit = ols x y in
  Alcotest.check floats "slope" 2.5 fit.Stats.Regression.slope;
  Alcotest.check floats "intercept" (-4.) fit.Stats.Regression.intercept;
  Alcotest.check float_array "fitted line" y (Stats.Regression.fitted_line y)

let test_ols_degenerate_x () =
  let x = [| 3.; 3.; 3. |] and y = [| 1.; 2.; 3. |] in
  let fit = ols x y in
  Alcotest.check floats "slope 0" 0. fit.Stats.Regression.slope;
  Alcotest.check floats "intercept mean" 2. fit.Stats.Regression.intercept

(* --- interpolation --- *)

let test_interpolate_interior () =
  Alcotest.check float_array "linear"
    [| 1.; 2.; 3.; 4. |]
    (Stats.Interpolate.fill_linear (arr [ 1.; Float.nan; Float.nan; 4. ]))

let test_interpolate_edges_extrapolate () =
  Alcotest.check float_array "extrapolation"
    [| 0.; 1.; 2.; 3. |]
    (Stats.Interpolate.fill_linear (arr [ Float.nan; 1.; 2.; Float.nan ]))

let test_interpolate_single_point () =
  Alcotest.check float_array "constant"
    [| 5.; 5.; 5. |]
    (Stats.Interpolate.fill_linear (arr [ Float.nan; 5.; Float.nan ]))

(* --- seasonal decomposition --- *)

let synthetic ~n ~period ~trend_slope ~amp =
  Array.init n (fun i ->
      let t = float_of_int i in
      (trend_slope *. t)
      +. (amp *. sin (2. *. Float.pi *. t /. float_of_int period)))

let test_decompose_reconstruction_identity () =
  let xs = synthetic ~n:48 ~period:12 ~trend_slope:0.8 ~amp:10. in
  List.iter
    (fun method_ ->
      let trend = Stats.Decompose.trend ~method_ ~period:12 xs in
      let seasonal = Stats.Decompose.seasonal ~method_ ~period:12 xs in
      let remainder = Stats.Decompose.remainder ~method_ ~period:12 xs in
      Array.iteri
        (fun i x ->
          Alcotest.check floats "identity" x
            (trend.(i) +. seasonal.(i) +. remainder.(i)))
        xs)
    [ Stats.Decompose.Classical; Stats.Decompose.Stl ]

let test_decompose_recovers_components () =
  let period = 12 and slope = 0.8 and amp = 10. in
  let xs = synthetic ~n:72 ~period ~trend_slope:slope ~amp in
  let component f = f ?method_:(Some Stats.Decompose.Stl) ~period xs in
  (* the trend should grow with roughly the true slope in the interior *)
  let t = component Stats.Decompose.trend in
  let measured_slope = (t.(60) -. t.(12)) /. 48. in
  Alcotest.(check bool) "slope recovered" true
    (Float.abs (measured_slope -. slope) < 0.1);
  (* the seasonal component should carry most of the sinusoid's variance *)
  let seasonal_sd = Stats.Descriptive.stddev (component Stats.Decompose.seasonal) in
  Alcotest.(check bool) "seasonal amplitude" true
    (seasonal_sd > 0.8 *. (amp /. sqrt 2.));
  (* and the remainder should be comparatively small *)
  let remainder_sd =
    Stats.Descriptive.stddev (component Stats.Decompose.remainder)
  in
  Alcotest.(check bool)
    (Printf.sprintf "remainder small (%.3f vs %.3f)" remainder_sd seasonal_sd)
    true
    (remainder_sd < 0.25 *. seasonal_sd)

let test_decompose_seasonal_periodicity () =
  let xs = synthetic ~n:48 ~period:4 ~trend_slope:0.3 ~amp:5. in
  let seasonal = Stats.Decompose.seasonal ~method_:Stats.Decompose.Classical ~period:4 xs in
  (* classical seasonal figure repeats exactly *)
  for i = 0 to 43 do
    Alcotest.check floats "periodic" seasonal.(i) seasonal.(i + 4)
  done

let test_decompose_too_short_rejected () =
  Alcotest.check_raises "too short"
    (Invalid_argument
       "Decompose: series of length 6 too short for period 4 (need >= 8)")
    (fun () ->
      ignore
        (Stats.Decompose.trend ~method_:Stats.Decompose.Stl ~period:4 (Array.make 6 1.)))

let prop_deseasonalize_removes_seasonality =
  QCheck.Test.make ~count:50 ~name:"deseasonalized series is less seasonal"
    QCheck.(pair (int_range 2 20) (int_range 3 9))
    (fun (amp, slope_tenths) ->
      (* the shrinker may escape the declared ranges; a flat series has
         no seasonality to remove *)
      QCheck.assume (amp >= 2 && slope_tenths >= 1);
      let amp = float_of_int amp and slope = float_of_int slope_tenths /. 10. in
      let xs = synthetic ~n:48 ~period:12 ~trend_slope:slope ~amp in
      let adjusted = Stats.Decompose.deseasonalize ~period:12 xs in
      let seasonal_power a =
        Stats.Descriptive.stddev
          (Stats.Decompose.seasonal ~method_:Stats.Decompose.Classical ~period:12 a)
      in
      (* Measuring seasonality of a trending series has an edge-effect
         floor; the adjusted series should sit near that floor, far
         below the seasonal signal itself. *)
      let floor_power =
        seasonal_power (synthetic ~n:48 ~period:12 ~trend_slope:slope ~amp:0.)
      in
      seasonal_power adjusted < floor_power +. (0.15 *. seasonal_power xs))

let suite =
  [
    ("descriptive: known values", `Quick, test_descriptive_known_values);
    ("descriptive: empty rejected", `Quick, test_descriptive_empty_rejected);
    ("descriptive: autocorrelation", `Quick, test_autocorrelation);
    ("aggregate: known values", `Quick, test_aggregate_known);
    ("aggregate: names roundtrip", `Quick, test_aggregate_names_roundtrip);
    QCheck_alcotest.to_alcotest prop_aggregate_bounds;
    QCheck_alcotest.to_alcotest prop_sum_count_avg;
    ("moving: trailing average", `Quick, test_moving_trailing);
    ("moving: centered odd", `Quick, test_moving_centered_odd);
    ("moving: centered even (2xw)", `Quick, test_moving_centered_even_2xw);
    ("moving: diff and pct", `Quick, test_moving_diff_and_pct);
    ("moving: cumsum", `Quick, test_moving_cumsum);
    ("loess: fits linear exactly", `Quick, test_loess_fits_linear_exactly);
    ("loess: tricube", `Quick, test_loess_tricube);
    ("regression: recovers line", `Quick, test_ols_recovers_line);
    ("regression: degenerate x", `Quick, test_ols_degenerate_x);
    ("interpolate: interior", `Quick, test_interpolate_interior);
    ("interpolate: edges extrapolate", `Quick, test_interpolate_edges_extrapolate);
    ("interpolate: single point", `Quick, test_interpolate_single_point);
    ("decompose: reconstruction identity", `Quick, test_decompose_reconstruction_identity);
    ("decompose: recovers components", `Quick, test_decompose_recovers_components);
    ("decompose: classical periodicity", `Quick, test_decompose_seasonal_periodicity);
    ("decompose: too short rejected", `Quick, test_decompose_too_short_rejected);
    QCheck_alcotest.to_alcotest prop_deseasonalize_removes_seasonality;
  ]
