# Runs TOOL with TOOL_ARGS twice and fails unless the two outputs are
# byte-identical: the determinism check for tools whose output is a
# function of their arguments. Invoked by ctest via
#   cmake -DTOOL=... -DTOOL_ARGS=arg1;arg2;... -DOUT_DIR=... -DCASE=...
#         -P compare_runs.cmake

get_filename_component(tool_name ${TOOL} NAME_WE)

foreach(run a b)
  set(output_${run} "${OUT_DIR}/${tool_name}_${CASE}_run_${run}.txt")
  execute_process(
    COMMAND ${TOOL} ${TOOL_ARGS}
    OUTPUT_FILE ${output_${run}}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${tool_name} run ${run} failed with status ${status}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${output_a} ${output_b}
  RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR "${tool_name} ${TOOL_ARGS} printed different bytes on two runs")
endif()
