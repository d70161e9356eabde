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
