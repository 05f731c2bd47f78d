# Runs omnifair_cli with an unknown --model or --metric, a malformed numeric
# flag, or a flag combination it cannot honour, and requires a usage error
# (exit 2) naming the problem, not an abort or a silently different run.
# Invoked by the cli_bad_names ctest target (tests/CMakeLists.txt) as:
#   cmake -D CLI=.../omnifair_cli -D OUT_DIR=... -P cli_bad_names.cmake

foreach(required CLI OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "cli_bad_names.cmake: missing -D ${required}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
set(data ${OUT_DIR}/compas.csv)
execute_process(COMMAND ${CLI} synth --dataset compas --rows 200 --out ${data}
                RESULT_VARIABLE synth_result OUTPUT_QUIET)
if(NOT synth_result EQUAL 0)
  message(FATAL_ERROR "synth exited with status ${synth_result}")
endif()

set(common --data ${data} --label two_year_recid --sensitive race)
# Each case: a label, the expected stderr fragment, then the CLI arguments.
function(expect_usage_error label expected)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT result STREQUAL "2")
    message(FATAL_ERROR "${label}: want exit 2, got '${result}'\n${err}")
  endif()
  string(FIND "${err}" "${expected}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${label}: stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

expect_usage_error("train --model foo" "accepted: lr, dt, rf, xgb"
                   train ${common} --model foo)
expect_usage_error("train --metric bogus" "accepted: sp, mr, fpr, fnr, for, fdr"
                   train ${common} --metric bogus)
expect_usage_error("explain --stream --model foo" "accepted: lr"
                   explain ${common} --stream --model foo)
expect_usage_error("audit --metric bogus" "accepted: sp"
                   audit ${common} --metric bogus --bundle ${OUT_DIR}/none.ofb)
expect_usage_error("train --epsilon 0.o3" "--epsilon '0.o3'"
                   train ${common} --epsilon 0.o3)
expect_usage_error("synth --rows 1e3" "--rows '1e3'"
                   synth --dataset compas --rows 1e3 --out ${OUT_DIR}/rows.csv)
file(REMOVE ${data}.ofcd)
expect_usage_error("train --stream --out" "--out is not supported with --stream"
                   train ${common} --stream --out ${OUT_DIR}/stream.ofb)
# Rejected before ingest: no chunked spill next to the CSV.
if(EXISTS ${data}.ofcd)
  message(FATAL_ERROR "train --stream --out ingested ${data}.ofcd before failing")
endif()
# The mini-batch SGD knobs belong to the streaming tuner; in memory every
# model trains on its own full-data solver, so they are refused there.
foreach(command train explain)
  expect_usage_error("${command} --batch-size" "only supported with --stream"
                     ${command} ${common} --batch-size 64)
  expect_usage_error("${command} --epochs" "only supported with --stream"
                     ${command} ${common} --epochs 2)
  expect_usage_error("${command} --lr-schedule" "only supported with --stream"
                     ${command} ${common} --lr-schedule invsqrt)
endforeach()
# On --stream each value is checked before ingest, never silently replaced.
expect_usage_error("train --stream --lr-schedule bogus"
                   "unknown --lr-schedule 'bogus' (accepted: constant, invsqrt)"
                   train ${common} --stream --lr-schedule bogus)
expect_usage_error("train --stream --batch-size 0"
                   "--batch-size must be a positive integer"
                   train ${common} --stream --batch-size 0)
expect_usage_error("train --stream --batch-size -5"
                   "--batch-size must be a positive integer"
                   train ${common} --stream --batch-size -5)
expect_usage_error("train --stream --epochs 0" "--epochs must be a positive integer"
                   train ${common} --stream --epochs 0)
expect_usage_error("explain --stream --epochs -1"
                   "--epochs must be a positive integer"
                   explain ${common} --stream --epochs -1)
expect_usage_error("train --stream --block-rows 0"
                   "--block-rows must be a positive integer"
                   train ${common} --stream --block-rows 0)
if(EXISTS ${data}.ofcd)
  message(FATAL_ERROR "a rejected --stream value ingested ${data}.ofcd")
endif()
# synth --stream checks --block-rows before writing anything.
expect_usage_error("synth --stream --block-rows -5"
                   "--block-rows must be a positive integer"
                   synth --dataset compas --rows 100 --stream --block-rows -5
                   --out ${OUT_DIR}/blocks.ofcd)
if(EXISTS ${OUT_DIR}/blocks.ofcd)
  message(FATAL_ERROR "synth --stream --block-rows -5 wrote ${OUT_DIR}/blocks.ofcd")
endif()
