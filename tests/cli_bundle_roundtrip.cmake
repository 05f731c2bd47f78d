# Drives the deployment path through omnifair_cli: train --out writes an
# OFBD bundle that bundle inspect, audit, predict and serve all accept, and
# the removed --model-file flag is a usage error.
# Invoked by the cli_bundle_roundtrip ctest target (tests/CMakeLists.txt) as:
#   cmake -D CLI=.../omnifair_cli -D OUT_DIR=... -P cli_bundle_roundtrip.cmake

foreach(required CLI OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "cli_bundle_roundtrip.cmake: missing -D ${required}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
set(data ${OUT_DIR}/compas.csv)
set(bundle ${OUT_DIR}/m.ofb)
set(scores ${OUT_DIR}/s.txt)
set(rows 2000)
file(REMOVE ${bundle} ${scores})

# Each step: a label, the accepted exit codes (";"-list), then the arguments.
function(expect_exit label accepted)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(FIND accepted "${result}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "${label}: want exit ${accepted}, got '${result}'\n${out}${err}")
  endif()
endfunction()

set(labels --data ${data} --label two_year_recid)
set(constraint --sensitive race --metric sp --epsilon 0.05)
expect_exit("synth" "0" synth --dataset compas --rows ${rows} --out ${data})
expect_exit("train --out" "0;3" train ${labels} ${constraint} --model lr
            --out ${bundle})
expect_exit("bundle inspect" "0" bundle inspect ${bundle})
expect_exit("audit --bundle" "0;3" audit ${labels} ${constraint}
            --bundle ${bundle})
expect_exit("predict --bundle" "0" predict ${labels} --bundle ${bundle}
            --out ${scores})
file(STRINGS ${scores} score_lines)
list(LENGTH score_lines scored)
if(NOT scored EQUAL rows)
  message(FATAL_ERROR "predict wrote ${scored} scores for ${rows} rows")
endif()
expect_exit("serve --bundle" "0" serve ${labels} --bundle ${bundle}
            --group race --batch 128)
expect_exit("audit --model-file" "2" audit ${labels} ${constraint}
            --model-file ${bundle})
