# Runs EXE with the space-separated ARGS and fails unless it exits with
# EXPECTED; when MATCHES is given, its stdout and stderr together must also
# match that regular expression.
#   cmake -DEXE=<path> -DARGS="<args>" -DEXPECTED=<code> [-DMATCHES=<regex>]
#         -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${arg_list}
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output
                RESULT_VARIABLE rc)
message("${output}")
if(NOT rc STREQUAL EXPECTED)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}, expected ${EXPECTED}")
endif()
if(DEFINED MATCHES AND NOT output MATCHES "${MATCHES}")
  message(FATAL_ERROR "output of ${EXE} ${ARGS} does not match '${MATCHES}'")
endif()
