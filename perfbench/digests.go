package main

// pinnedDigests holds, per workload, the SHA-256 of every cell's rendered
// row at defaultSeed, in row order. Regenerate only after a deliberate
// model change, with
//
//	go run . --workload <name> --print-digests
var pinnedDigests = map[string][]string{
	"rack256": {
		"636932b6f61cf2427d712f28303ab3a2b79e7c1ac793ac42f3fe2d454b85960c", // dNIC ecn=false load=0.1
		"14baa19b69fb994697fc0fd86c46cb61ff3b169cdeba986663ecd040361954fa", // dNIC ecn=false load=0.4
		"8381f7d69cfd871c1bb76c746bcdaa8cdcb4da42fe14843d83e0e843b4ec39d3", // dNIC ecn=true load=0.1
		"4b8c76e5f2521473a374daf76b69f9822c80f90f12b1e1c1bc1b11022c8b23f5", // dNIC ecn=true load=0.4
		"525a60f7a1c263e70839f33acf7a3aa28683a9ed65677ad4b687e073d9d773e4", // iNIC ecn=false load=0.1
		"3fca9eef1a980e1cde71e2de23ad34f5fe771b54b877d74c8dba85c92e27f6a8", // iNIC ecn=false load=0.4
		"86c0a00f7180a746daf4d6df1cdb20cfa4cc820d56f6e47ff61b74abd9fce4fa", // iNIC ecn=true load=0.1
		"f42067991adfccf7395ebd9dc5e6e56285996dc8e3669fa0ee3bc581856df702", // iNIC ecn=true load=0.4
		"1893d9da73cc1c92bbdb45d368c53b90ea06b1831f30891416c1e987982db3ec", // NetDIMM ecn=false load=0.1
		"eb05f3ae015407dca30b6a61bab2e319817f84cbf76c543069d4ad122d9ab5e1", // NetDIMM ecn=false load=0.4
		"142bf198e4b32c3ba39b23e42cc830546effa3d7f4c98f0c43ac66022c842cb8", // NetDIMM ecn=true load=0.1
		"0616bcd7def5bfbd46db455e1b94aed12df61c0d7733fff32ae0f42ceddb36d4", // NetDIMM ecn=true load=0.4
	},
	"incast32": {
		"1a8b29989981ed77b611b927a5b08ea5c347f263310edc9a510e8ecd2c910f53", // dNIC load=0.08
		"3dc6040942ac77dbc7d664275668092f5cb60d3b6d6c2945c51d778f3b4347c1", // dNIC load=0.14
		"03d10d8cd27f704abc6e2d71e47c57de32b47a8303aafa9422d140e9521e1f6c", // iNIC load=0.08
		"c83f97ae38f2259d3e043847831a636268d79a665cdb4568d9ebe98f115e1ca9", // iNIC load=0.14
		"2669723a3654868077e556477cc29f2d9412d80d785fa9328b19080c4e6aeb3e", // NetDIMM load=0.08
		"98408b4a2964cb2f2cdf2311a77d8e14519fb0e7815db93ccffc8b689f495de6", // NetDIMM load=0.14
	},
	"allreduce64": {
		"a4a8cc4432b4d98284a13c7bac0daa021c60bb384a237b3e377008f33bf4e6a8", // dNIC
		"6f5a236437536db0b6deb80ec7ea185d12ee047eaaa36641fb54e0e7483383ad", // iNIC
		"9041bfb6b913b785de981d578f34b91eddf5aa9adf767d8fa1c42a6557b27ddf", // NetDIMM
	},
}
