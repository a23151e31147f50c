# Drives the vorctl binary through a full generate/solve/validate/simulate
# cycle; any non-zero exit fails the test.
set(scenario ${WORKDIR}/vorctl_scenario.json)
set(schedule ${WORKDIR}/vorctl_schedule.json)
set(trace ${WORKDIR}/vorctl_trace.csv)

execute_process(
  COMMAND ${VORCTL} gen-scenario --storages 6 --users 4 --catalog 40
          --capacity-gb 5 --seed 11 --out ${scenario} --trace-out ${trace}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen-scenario failed: ${rc}")
endif()
if(NOT EXISTS ${trace})
  message(FATAL_ERROR "trace export missing")
endif()

execute_process(
  COMMAND ${VORCTL} solve ${scenario} --heat m2 --out ${schedule}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve failed: ${rc}")
endif()
if(NOT out MATCHES "total cost")
  message(FATAL_ERROR "solve output missing report: ${out}")
endif()

execute_process(
  COMMAND ${VORCTL} validate ${scenario} ${schedule}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "validate failed (${rc}): ${out}")
endif()

execute_process(
  COMMAND ${VORCTL} simulate ${scenario} ${schedule}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed: ${rc}")
endif()
if(NOT out MATCHES "peak concurrent streams")
  message(FATAL_ERROR "simulate output unexpected: ${out}")
endif()

execute_process(
  COMMAND ${VORCTL} report ${scenario} ${schedule}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report failed: ${rc}")
endif()
if(NOT out MATCHES "hit ratio")
  message(FATAL_ERROR "report output unexpected: ${out}")
endif()

# Diffing a schedule against itself is empty; against a re-solve with a
# different heat metric it must not crash.
execute_process(
  COMMAND ${VORCTL} diff ${scenario} ${schedule} ${schedule}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "0 file")
  message(FATAL_ERROR "self-diff unexpected: ${out}")
endif()

# Solving against the exported CSV trace must match the embedded requests.
execute_process(
  COMMAND ${VORCTL} solve ${scenario} --trace ${trace}
  RESULT_VARIABLE rc OUTPUT_VARIABLE trace_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve --trace failed: ${rc}")
endif()
if(NOT trace_out MATCHES "total cost")
  message(FATAL_ERROR "solve --trace output unexpected")
endif()

# Malformed numeric flags must fail with a usage error, not crash with
# an unhandled std::stod exception.
execute_process(
  COMMAND ${VORCTL} solve ${scenario} --threads abc
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "expects a")
  message(FATAL_ERROR "malformed --threads: rc=${rc} err=${err}")
endif()
execute_process(
  COMMAND ${VORCTL} gen-scenario --seed 12xyz
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "expects a")
  message(FATAL_ERROR "malformed --seed: rc=${rc} err=${err}")
endif()
# Integral flags with overflowing or non-integer literals are a usage
# error too — previously 1e300 went through an undefined double->u64 cast.
execute_process(
  COMMAND ${VORCTL} gen-scenario --seed 1e300
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "overflowing --seed: rc=${rc} err=${err}")
endif()
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --cycle 21600 --producers 1e300
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "overflowing --producers: rc=${rc} err=${err}")
endif()
execute_process(
  COMMAND ${VORCTL} gen-scenario --catalog 99999999999999999999999
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "expects a non-negative integer")
  message(FATAL_ERROR "overflowing --catalog: rc=${rc} err=${err}")
endif()
# Well-formed values a scenario cannot be built from are an error up front,
# not a crash or a scenario file that solve refuses later.  Negative rates
# and capacities get solve's own messages; "nan" and "inf", which
# std::stod parses, would otherwise be written out as non-JSON tokens.
foreach(case "catalog;0;needs storages and a catalog"
             "storages;0;needs storages and a catalog"
             "alpha;3;alpha must be in" "alpha;-2;alpha must be in"
             "capacity-gb;-1;negative capacity at node IS-hub0"
             "nrate;-5;negative nrate on a link"
             "srate;nan;--srate expects a finite number"
             "capacity-gb;nan;--capacity-gb expects a finite number"
             "nrate;inf;--nrate expects a finite number")
  list(GET case 0 flag)
  list(GET case 1 value)
  list(GET case 2 expected)
  execute_process(
    COMMAND ${VORCTL} gen-scenario --${flag} ${value}
            --out ${WORKDIR}/vorctl_bad.json
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${expected}")
    message(FATAL_ERROR "gen-scenario --${flag} ${value}: rc=${rc} err=${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${VORCTL} gen-trace ${scenario} --alpha 3
          --out ${WORKDIR}/vorctl_bad.vorb
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "alpha must be in")
  message(FATAL_ERROR "gen-trace --alpha 3: rc=${rc} err=${err}")
endif()

# --metrics-out must emit a JSON document carrying the phase spans and
# solver counters.
set(metrics ${WORKDIR}/vorctl_metrics.json)
execute_process(
  COMMAND ${VORCTL} solve ${scenario} --metrics-out ${metrics}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve --metrics-out failed: ${rc}")
endif()
if(NOT EXISTS ${metrics})
  message(FATAL_ERROR "metrics export missing")
endif()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ ${metrics} metrics_text)
  string(JSON metrics_version ERROR_VARIABLE json_err
         GET "${metrics_text}" version)
  if(NOT metrics_version STREQUAL "vor-metrics/1")
    message(FATAL_ERROR "bad metrics version: ${metrics_version} ${json_err}")
  endif()
  foreach(timer "solve" "solve/ivsp" "solve/sorp")
    string(JSON timer_count ERROR_VARIABLE json_err
           GET "${metrics_text}" timers "${timer}" count)
    if(json_err OR timer_count LESS 1)
      message(FATAL_ERROR "timer '${timer}' missing: ${json_err}")
    endif()
  endforeach()
  string(JSON n ERROR_VARIABLE json_err
         GET "${metrics_text}" counters "ivsp.requests")
  if(json_err OR n LESS 1)
    message(FATAL_ERROR "counter ivsp.requests missing: ${json_err}")
  endif()
endif()

# Online replay through the reservation service: two runs at different
# producer counts must commit byte-identical schedules, and a third run
# restored from the snapshot must resume to the same bytes.
set(served1 ${WORKDIR}/vorctl_served_p1.json)
set(served4 ${WORKDIR}/vorctl_served_p4.json)
set(snapshot ${WORKDIR}/vorctl_snapshot.json)
file(REMOVE ${snapshot})
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace} --cycle 21600
          --producers 1 --out ${served1} --snapshot ${snapshot}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --producers 1 failed (${rc}): ${out}")
endif()
if(NOT out MATCHES "cycle close p50")
  message(FATAL_ERROR "serve output missing latency summary: ${out}")
endif()
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace} --cycle 21600
          --producers 4 --out ${served4}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --producers 4 failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${served1} ${served4}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve output depends on producer count")
endif()
set(resumed ${WORKDIR}/vorctl_served_resumed.json)
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace} --cycle 21600
          --producers 4 --out ${resumed} --snapshot ${snapshot}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "restored")
  message(FATAL_ERROR "serve restore failed (${rc}): ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${served1} ${resumed}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restored serve diverged from the original run")
endif()
# Only a non-empty window closes a cycle: at --cycle 1 the day-long trace
# spans ~86,000 windows, but the closes stay within one per request plus
# the deferred-backlog drain (at most 16), and a restored run still
# resumes to the same bytes.
set(served_fine ${WORKDIR}/vorctl_served_cycle1.json)
set(resumed_fine ${WORKDIR}/vorctl_served_cycle1_resumed.json)
set(snapshot_fine ${WORKDIR}/vorctl_snapshot_cycle1.json)
file(REMOVE ${snapshot_fine})
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace} --cycle 1
          --out ${served_fine} --snapshot ${snapshot_fine}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --cycle 1 failed (${rc}): ${out}")
endif()
if(NOT out MATCHES "served ([0-9]+)/([0-9]+) request\\(s\\) over ([0-9]+) cycle")
  message(FATAL_ERROR "serve --cycle 1 summary missing: ${out}")
endif()
set(fine_total ${CMAKE_MATCH_2})
set(fine_closes ${CMAKE_MATCH_3})
math(EXPR fine_bound "${fine_total} + 16")
if(fine_closes GREATER fine_bound)
  message(FATAL_ERROR
    "serve --cycle 1 closed ${fine_closes} cycles for ${fine_total} requests")
endif()
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace} --cycle 1
          --out ${resumed_fine} --snapshot ${snapshot_fine}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "restored")
  message(FATAL_ERROR "serve --cycle 1 restore failed (${rc}): ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${served_fine} ${resumed_fine}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restored serve --cycle 1 diverged from the original")
endif()
# --cycle must be a finite positive number of seconds (nan and inf would
# replay the whole trace as one window).
foreach(cycle 0 nan inf)
  execute_process(
    COMMAND ${VORCTL} serve ${scenario} --cycle ${cycle}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "--cycle")
    message(FATAL_ERROR "serve --cycle ${cycle}: rc=${rc} err=${err}")
  endif()
endforeach()

# ---- vor-bin codec round trips -------------------------------------------
# CSV -> binary -> CSV -> binary: the two binary encodings must be
# byte-identical (the binary container is canonical).
set(trace_bin ${WORKDIR}/vorctl_trace.vorb)
set(trace_rt ${WORKDIR}/vorctl_trace_rt.csv)
set(trace_bin2 ${WORKDIR}/vorctl_trace_rt.vorb)
execute_process(
  COMMAND ${VORCTL} convert ${trace} ${trace_bin}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "binary")
  message(FATAL_ERROR "convert csv->binary failed (${rc}): ${out}")
endif()
execute_process(
  COMMAND ${VORCTL} convert ${trace_bin} ${trace_rt}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert binary->csv failed: ${rc}")
endif()
execute_process(
  COMMAND ${VORCTL} convert ${trace_rt} ${trace_bin2}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert csv->binary (2nd) failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${trace_bin} ${trace_bin2}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "binary trace re-encode is not byte-identical")
endif()

# Schedule JSON -> binary -> JSON must reproduce the original bytes, and
# validate must accept the binary schedule directly.
set(schedule_bin ${WORKDIR}/vorctl_schedule.vorb)
set(schedule_rt ${WORKDIR}/vorctl_schedule_rt.json)
execute_process(
  COMMAND ${VORCTL} convert ${schedule} ${schedule_bin}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert schedule json->binary failed: ${rc}")
endif()
execute_process(
  COMMAND ${VORCTL} convert ${schedule_bin} ${schedule_rt}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert schedule binary->json failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${schedule} ${schedule_rt}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schedule JSON<->binary round trip lost bytes")
endif()
execute_process(
  COMMAND ${VORCTL} validate ${scenario} ${schedule_bin}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "validate rejected the binary schedule (${rc}): ${out}")
endif()

# Batch solve from the CSV trace and from its binary twin must commit
# byte-identical schedules.
set(solved_csv ${WORKDIR}/vorctl_solved_csv.json)
set(solved_bin ${WORKDIR}/vorctl_solved_bin.json)
execute_process(
  COMMAND ${VORCTL} solve ${scenario} --trace ${trace} --out ${solved_csv}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve --trace csv failed: ${rc}")
endif()
execute_process(
  COMMAND ${VORCTL} solve ${scenario} --trace ${trace_bin} --out ${solved_bin}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve --trace binary failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${solved_csv} ${solved_bin}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve schedule depends on trace encoding")
endif()

# Streaming binary replay must commit the same bytes as the CSV replay,
# at any producer count.
set(served_bin4 ${WORKDIR}/vorctl_served_bin4.json)
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace_bin} --cycle 21600
          --producers 4 --out ${served_bin4}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve binary trace failed (${rc}): ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${served1} ${served_bin4}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve schedule depends on trace encoding")
endif()

# Binary snapshot + binary schedule out: the decoded schedule must match
# the JSON run, and a restore from the binary snapshot must resume.
set(snapshot_bin ${WORKDIR}/vorctl_snapshot.vorb)
set(served_vorb ${WORKDIR}/vorctl_served_bin1.vorb)
set(served_vorb_json ${WORKDIR}/vorctl_served_bin1_rt.json)
file(REMOVE ${snapshot_bin})
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace_bin} --cycle 21600
          --producers 1 --binary --out ${served_vorb}
          --snapshot ${snapshot_bin}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --binary failed (${rc}): ${out}")
endif()
execute_process(
  COMMAND ${VORCTL} convert ${served_vorb} ${served_vorb_json}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "convert served binary schedule failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${served1} ${served_vorb_json}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "binary served schedule decoded to different bytes")
endif()
set(resumed_bin ${WORKDIR}/vorctl_resumed_bin.json)
execute_process(
  COMMAND ${VORCTL} serve ${scenario} --trace ${trace_bin} --cycle 21600
          --producers 4 --snapshot ${snapshot_bin} --out ${resumed_bin}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "restored")
  message(FATAL_ERROR "binary snapshot restore failed (${rc}): ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${served1} ${resumed_bin}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "binary snapshot resume diverged from the original run")
endif()

# Corrupt the schedule (splice a bogus node into every route) and
# make sure validate now fails.
file(READ ${schedule} text)
string(REPLACE "\"route\": [" "\"route\": [999," text_bad "${text}")
file(WRITE ${schedule} "${text_bad}")
execute_process(
  COMMAND ${VORCTL} validate ${scenario} ${schedule}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "validate accepted a corrupted schedule")
endif()
