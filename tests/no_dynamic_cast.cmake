# Fails if any file under SRC_DIR (-DSRC_DIR=<path>) mentions
# dynamic_cast. The library dispatches messages with sim::msg_cast, an
# exact-type kind compare; this keeps RTTI dispatch out of src/.
if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "no_dynamic_cast.cmake requires -DSRC_DIR=<path>")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
if(NOT sources)
  message(FATAL_ERROR "no sources found under ${SRC_DIR}")
endif()
set(hits "")
foreach(f IN LISTS sources)
  file(STRINGS "${f}" lines REGEX "dynamic_cast")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(APPEND hits "\n  ${rel}: ${line}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "dynamic_cast under src/ (use sim::msg_cast):${hits}")
endif()
