package solver

// PhaseFingerprints reports the Fingerprint of the model each phase of w
// caches, phase 1 first; 0 where a phase caches none.
func PhaseFingerprints(w *WarmState) (fp [2]uint64) {
	for k, pw := range [2]*PhaseWarm{&w.Phase1, &w.Phase2} {
		if pw.model != nil {
			fp[k] = pw.model.m.Fingerprint()
		}
	}
	return fp
}

// RackFingerprint reports the Fingerprint of the rack-phase model a cold
// build makes for in when phase 1 ended at the targets w's rack model was
// last built or patched for; 0 where w caches no rack model.
func RackFingerprint(in Input, cfg Config, w *WarmState) uint64 {
	bp := w.Phase2.model
	if bp == nil {
		return 0
	}
	cfg = cfg.withDefaults(in.Region)
	specs := buildSpecs(in, cfg)
	targets := bp.curRef
	var t roundTables
	specs2, pool2 := t.rackScope(specs, t.pickPhase2(in, specs, targets), appendUsable(nil, in), targets)
	var stats PhaseStats
	return new(builtPhase).rebuild(in, cfg, specs2, pool2, targets, true, &stats).m.Fingerprint()
}
