let () =
  Alcotest.run "qcp"
    [
      ("util", Suite_util.suite);
      ("task-pool", Suite_task_pool.suite);
      ("graph", Suite_graph.suite);
      ("monomorph", Suite_monomorph.suite);
      ("circuit", Suite_circuit.suite);
      ("timing", Suite_timing.suite);
      ("scoring", Suite_scoring.suite);
      ("transform", Suite_transform.suite);
      ("dag", Suite_dag.suite);
      ("decompose", Suite_decompose.suite);
      ("library", Suite_library.suite);
      ("qasm", Suite_qasm.suite);
      ("sim", Suite_sim.suite);
      ("env", Suite_env.suite);
      ("route", Suite_route.suite);
      ("routers-ext", Suite_routers_ext.suite);
      ("route-flat", Suite_route_flat.suite);
      ("workspace", Suite_workspace.suite);
      ("placer", Suite_placer.suite);
      ("score-cache", Suite_score_cache.suite);
      ("portfolio", Suite_portfolio.suite);
      ("obs", Suite_obs.suite);
      ("baselines", Suite_baselines.suite);
      ("fidelity", Suite_fidelity.suite);
      ("schedule-metrics", Suite_schedule.suite);
      ("tuner-compress", Suite_tuner.suite);
      ("np-completeness", Suite_npc.suite);
      ("verify", Suite_verify.suite);
      ("experiments", Suite_experiments.suite);
      ("crosscheck", Suite_crosscheck.suite);
      ("noisy", Suite_noisy.suite);
      ("scale", Suite_scale.suite);
      ("serve", Suite_serve.suite);
      ("serve-obs", Suite_serve_obs.suite);
    ]
