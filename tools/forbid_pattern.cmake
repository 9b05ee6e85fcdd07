# Fails when the regular expression PATTERN matches a line of any .h or
# .cpp file under DIR, naming each offending line; also fails when DIR
# holds no such file, so a moved directory cannot pass vacuously.
#   cmake -DDIR=<dir> -DPATTERN=<regex> -P forbid_pattern.cmake
file(GLOB_RECURSE sources "${DIR}/*.h" "${DIR}/*.cpp")
if(NOT sources)
  message(FATAL_ERROR "no .h or .cpp files under ${DIR}")
endif()
set(hits "")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" lines REGEX "${PATTERN}")
  foreach(line IN LISTS lines)
    string(APPEND hits "\n  ${source}: ${line}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "'${PATTERN}' appears under ${DIR}:${hits}")
endif()
