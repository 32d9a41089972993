package main

// golden is the pinned result of one case at a workload's default seed,
// recorded from the engine as it was when the benchmark was added. A
// change that only makes the engine faster must leave every one of them
// unchanged.
type golden struct {
	digest string
	agg    aggregates
}

// goldens holds, per engine workload, the pinned result of every pool
// sequence at the default seed, keyed by case label.
var goldens = map[string]map[string]golden{
	"sg1423-step0": {
		"sg1423/L64/seed11423":   {"6f8d8900ff661c896419237f7d2ac202", aggregates{Faults: 2488, Conv: 471, MOT: 12, Identified: 0, PrunedC: 1985, Pairs: 4635, Expansions: 192, Sequences: 2048}},
		"sg1423/L64/seed1011426": {"b56d17315e694780ad6b3049724cbd3d", aggregates{Faults: 2488, Conv: 461, MOT: 0, Identified: 0, PrunedC: 2005, Pairs: 4176, Expansions: 132, Sequences: 1408}},
		"sg1423/L64/seed2011429": {"e2dba5e0ef35308666a1e521a536970e", aggregates{Faults: 2488, Conv: 419, MOT: 0, Identified: 0, PrunedC: 2060, Pairs: 2031, Expansions: 54, Sequences: 576}},
		"sg1423/L64/seed3011432": {"39f358c3b253df4efcfb1c321ab79d6a", aggregates{Faults: 2488, Conv: 461, MOT: 0, Identified: 0, PrunedC: 1994, Pairs: 6400, Expansions: 198, Sequences: 2112}},
		"sg1423/L64/seed4011435": {"7612063f9c4ff66c5528543aec572565", aggregates{Faults: 2488, Conv: 460, MOT: 0, Identified: 0, PrunedC: 2011, Pairs: 2312, Expansions: 102, Sequences: 1088}},
		"sg1423/L64/seed5011438": {"0f3bb5d37f23e74f4e5f6d5e3d97a691", aggregates{Faults: 2488, Conv: 468, MOT: 0, Identified: 0, PrunedC: 1986, Pairs: 4731, Expansions: 204, Sequences: 2176}},
		"sg1423/L64/seed6011441": {"32308e848123830b3d2e9b40030ab266", aggregates{Faults: 2488, Conv: 449, MOT: 0, Identified: 0, PrunedC: 2034, Pairs: 1220, Expansions: 30, Sequences: 320}},
		"sg1423/L64/seed7011444": {"f68f068af0b65afda9db276b8be03bcb", aggregates{Faults: 2488, Conv: 472, MOT: 0, Identified: 0, PrunedC: 1996, Pairs: 2551, Expansions: 120, Sequences: 1280}},
	},
	"sg641-implic": {
		"sg641/L256/seed1641":    {"5f991afb7b290e99256367d6e65a2e43", aggregates{Faults: 1423, Conv: 576, MOT: 51, Identified: 0, PrunedC: 745, Pairs: 57106, Expansions: 612, Sequences: 6528}},
		"sg641/L256/seed1001644": {"207a15b7f8e508a15b0bb60e5be35f73", aggregates{Faults: 1423, Conv: 596, MOT: 58, Identified: 0, PrunedC: 727, Pairs: 62947, Expansions: 600, Sequences: 6400}},
		"sg641/L256/seed2001647": {"7bdf9bd9608a3640002867c0ef13dfc5", aggregates{Faults: 1423, Conv: 574, MOT: 72, Identified: 0, PrunedC: 718, Pairs: 64785, Expansions: 786, Sequences: 8384}},
		"sg641/L256/seed3001650": {"6b5d6ea15835704107d98c9216547f07", aggregates{Faults: 1423, Conv: 606, MOT: 66, Identified: 0, PrunedC: 709, Pairs: 60609, Expansions: 648, Sequences: 6912}},
		"sg641/L256/seed4001653": {"055f73ec1d3749627095942ecd136b10", aggregates{Faults: 1423, Conv: 600, MOT: 42, Identified: 0, PrunedC: 728, Pairs: 61352, Expansions: 570, Sequences: 6080}},
		"sg641/L256/seed5001656": {"38ccfc5a7764eaf7c21e6deca176bff3", aggregates{Faults: 1423, Conv: 581, MOT: 53, Identified: 0, PrunedC: 736, Pairs: 62298, Expansions: 636, Sequences: 6784}},
		"sg641/L256/seed6001659": {"99666f2cd66e14df8ddf243fc8ae141d", aggregates{Faults: 1423, Conv: 636, MOT: 59, Identified: 0, PrunedC: 686, Pairs: 58719, Expansions: 606, Sequences: 6464}},
		"sg641/L256/seed7001662": {"aea9f69f10f81710360284df1bfea942", aggregates{Faults: 1423, Conv: 593, MOT: 56, Identified: 0, PrunedC: 731, Pairs: 64443, Expansions: 594, Sequences: 6336}},
	},
}

// goldensFor returns the pinned results for a run, or nil when the seed
// is not the workload's default and only self-consistency is checked.
func goldensFor(name string, seed int64) map[string]golden {
	if w := workloadByName(name); w == nil || seed != w.defaultSeed {
		return nil
	}
	return goldens[name]
}
