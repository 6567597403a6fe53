(* Path failure and recovery — the reliability motivation from the
   paper's introduction: multipath lets end hosts route around failures
   end-to-end.

   Two disjoint paths carry an MPTCP bulk transfer.  At t = 8 s the
   primary path's middle link is cut; at t = 16 s it comes back.  A
   plain TCP flow pinned to the primary path is run alongside for
   contrast: it stalls (exponential RTO backoff) for the whole outage,
   while MPTCP shifts onto the secondary path within a retransmission
   timeout.

     dune exec examples/failover.exe *)

let () =
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let p1 = Netgraph.Topology.add_node b "p1" in
  let p2 = Netgraph.Topology.add_node b "p2" in
  let z = Netgraph.Topology.add_node b "z" in
  let link u v mbps =
    Netgraph.Topology.add_link b ~u ~v
      ~capacity_bps:(Netgraph.Topology.mbps mbps)
      ~delay:(Engine.Time.ms 3)
  in
  let _ = link a p1 30 in
  let primary_mid = link p1 z 30 in
  let _ = link a p2 30 in
  let _ = link p2 z 30 in
  let topo = Netgraph.Topology.build b in

  let sched = Engine.Sched.create () in
  let rng = Engine.Rng.create 9 in
  let net = Netsim.Net.create ~sched ~rng topo in

  let primary = Netgraph.Path.of_names topo [ "a"; "p1"; "z" ] in
  let secondary = Netgraph.Path.of_names topo [ "a"; "p2"; "z" ] in
  let paths = Mptcp.Path_manager.tag_paths [ primary; secondary ] in
  Netsim.Net.install_path net ~tag:7 primary;

  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let horizon = Engine.Time.s 24 in
  let capture =
    Measure.Capture.attach net ~node:z ~conn:1 ~window:(Engine.Time.ms 250)
      ~until:horizon
  in
  let _mptcp =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ()
  in
  let tcp = Tcp.Flow.start ~src ~dst ~tag:7 ~conn:2 () in

  (* Fail and restore the primary path's middle link. *)
  Engine.Sched.at_anon sched (Engine.Time.s 8) (fun () ->
      Netsim.Net.set_link_up net ~link:primary_mid false);
  Engine.Sched.at_anon sched (Engine.Time.s 16) (fun () ->
      Netsim.Net.set_link_up net ~link:primary_mid true);

  let tcp_marks = ref [] in
  List.iter
    (fun t ->
      Engine.Sched.at_anon sched (Engine.Time.s t) (fun () ->
          tcp_marks := (t, Tcp.Flow.bytes_delivered tcp) :: !tcp_marks))
    [ 8; 16; 24 ];

  Engine.Sched.run ~until:horizon sched;

  let per_tag, total = Measure.Capture.per_tag capture in
  let named =
    List.map
      (fun (tag, s) -> ((if tag = 1 then "primary" else "secondary"), s))
      per_tag
    @ [ ("total", total) ]
  in
  print_string
    (Measure.Render.ascii_chart
       ~title:"MPTCP across a path failure (primary cut 8s-16s), Mbps" named);
  let mean name s lo hi =
    Printf.printf "  %-22s %5.1f Mbps in [%gs, %gs)\n" name
      (Measure.Series.mean_between s ~from_s:lo ~to_s:hi) lo hi
  in
  let primary_s = List.assoc 1 per_tag and secondary_s = List.assoc 2 per_tag in
  mean "primary before cut" primary_s 2.0 8.0;
  mean "secondary before cut" secondary_s 2.0 8.0;
  mean "primary during cut" primary_s 9.0 16.0;
  mean "secondary during cut" secondary_s 9.0 16.0;
  mean "primary after repair" primary_s 18.0 24.0;
  (match List.sort compare !tcp_marks with
  | [ (_, at8); (_, at16); (_, at24) ] ->
    Printf.printf
      "plain TCP on the primary: %.1f MB by 8s, +%.2f MB during the cut, \
       +%.1f MB after repair\n"
      (float_of_int at8 /. 1e6)
      (float_of_int (at16 - at8) /. 1e6)
      (float_of_int (at24 - at16) /. 1e6)
  | _ -> ());
  (* The mean rate over the whole run, in Mbps, times its length is the
     megabits captured. *)
  Printf.printf "MPTCP delivered %.1f MB in total.\n"
    (Measure.Series.mean total *. Engine.Time.to_float_s horizon /. 8.0)
