package gpm

// SetTestHookOracleBuild installs fn as the hook run at the start of
// every index construction the engine performs — the distance matrix,
// the 2-hop labelling and the PLL labelling — with the kind it builds
// (nil uninstalls). Tests count builds through it to prove the lazy
// oracle path is single-flight and that an auto engine builds nothing,
// and cancel build contexts through it to pin the
// retry-after-cancellation contract. Tests that install it must not run
// in parallel.
func SetTestHookOracleBuild(fn func(OracleKind)) { testHookOracleBuild = fn }
