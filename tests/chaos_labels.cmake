# Included by CTest after gtest discovery has registered both chaos suites
# (ResilientChaos in csq_tests, ServeChaos in csq_serve_tests). Each chaos
# discovery call is the last one of its target, so csq_tests_TESTS and
# csq_serve_tests_TESTS hold exactly the chaos lists here. The fault sites
# are compiled into every build, so the chaos suites run in the tier1 gate
# too. gtest_discover_tests' serializer cannot carry a multi-label list, so
# the full label set is applied here.
foreach(t IN LISTS csq_tests_TESTS csq_serve_tests_TESTS)
  set_tests_properties("${t}" PROPERTIES LABELS "tier1;chaos")
endforeach()
