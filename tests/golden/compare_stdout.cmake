# Runs EXE with the space-separated ARGS and byte-compares its stdout with
# the file EXPECTED (stderr is not compared: it carries timings).
#   cmake -DEXE=<path> -DARGS="<args>" -DEXPECTED=<file> -DACTUAL=<file>
#         -P compare_stdout.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${arg_list}
                OUTPUT_FILE "${ACTUAL}"
                ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${ACTUAL}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXE} ${ARGS} (${ACTUAL}) differs from "
                      "${EXPECTED}; diff the two files to see where")
endif()
