//! Reference digests recorded from the program's serial path (see
//! `Reference::serial`), so that a run at one of these seeds verifies
//! without recomputing its reference. Regenerate with
//! `perfbench --print-references 0..=15` after a change that is meant to
//! alter the program's output; any other mismatch is a failed check.

/// One recorded reference.
pub struct Recorded {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Simulated trace length of the workload's specs, in seconds.
    pub duration_s: u64,
    /// Report digests, one per spec in spec order.
    pub reports: &'static [u64],
    /// Artifact digest (`paper_full`), else 0.
    pub artifacts: u64,
    /// Records dropped by the fault adaptor, summed over the specs.
    pub dropped: u64,
}

/// The recorded table, one entry per workload and seed.
#[rustfmt::skip]
pub const RECORDED: &[Recorded] = &[
    Recorded { workload: "paper_full", seed: 0, duration_s: 600, reports: &[0xf16f05bc80b18f25, 0x75a866f7037d3d5a, 0x072aabee75055184, 0x0e5bac43a628bc5b, 0x1ca788d9ff8faee6, 0x98418ad0808d0b72, 0x8aa89018bd5bf880, 0x6f6d87054e1af2d9, 0xd2b691d677fd5598], artifacts: 0x42bbb8d08e7513c5, dropped: 0 },
    Recorded { workload: "paper_full", seed: 1, duration_s: 600, reports: &[0x47e79850f8af8337, 0xe19d3f2351b8b5d4, 0x688d3c8b77666795, 0x51899b36f0440e1a, 0xf798dcbfccc26b23, 0xd7c7a34bf16f4fff, 0xf95e029708448182, 0x88a5796d4eb2421c, 0x67a96766b0476c6a], artifacts: 0xb55a0c964f07f5b9, dropped: 0 },
    Recorded { workload: "paper_full", seed: 2, duration_s: 600, reports: &[0xc9c672176e1e813c, 0x40fae59004cd544a, 0x4553fa5f855ae0cc, 0xde193ca1c28c69f6, 0xfa834f4217e52130, 0xcf60187b90bfc76f, 0x3020a9b44f7741a5, 0x744a89f94ff22a48, 0x1a062e0f831e89f8], artifacts: 0x1d6dc825dafa466e, dropped: 0 },
    Recorded { workload: "paper_full", seed: 3, duration_s: 600, reports: &[0x081268b4ee41a268, 0xdcbc5a32e1b15d39, 0x46c589ff36b24924, 0x0250c63dbee9cd2c, 0x59dcee077e1b1395, 0x5adca53917b310df, 0x2e6acf9a327bca36, 0x796b7176fa99bf7d, 0xc2cd46ad379be16c], artifacts: 0xd5a9fe50a1251356, dropped: 0 },
    Recorded { workload: "paper_full", seed: 4, duration_s: 600, reports: &[0x74026ce3dcda5730, 0xf3c683e478898b95, 0x606fad5239b4320e, 0xfccf2a8087cea5a2, 0x62abdd4c8e18bfbf, 0x5a81167cfd8a300e, 0x3aa163d36908a0a1, 0x9ccebe851d059524, 0x29b1629bb1ff00bc], artifacts: 0x40eb37a51532b08b, dropped: 0 },
    Recorded { workload: "paper_full", seed: 5, duration_s: 600, reports: &[0x40e883e23fd1ac9e, 0x1cd18d01634748e7, 0xd476200d67faacdd, 0x667c81aed19b289b, 0x27e11481287d5ccf, 0x7566ad243a31b9f0, 0x91c7c421127d61ec, 0xd850b11deb6a93a9, 0x9e9f91d02e1ccbb0], artifacts: 0x574d19ac611e6378, dropped: 0 },
    Recorded { workload: "paper_full", seed: 6, duration_s: 600, reports: &[0x70588dccba4478b2, 0x56176bd8bbeeb459, 0x7ac14e78cfb89bc5, 0x6bd17c17f59f1c4b, 0x621c1d1a04ef4c31, 0xa3a46cf77998b5a0, 0xdac7c7f15cc39c6e, 0xa9c1cbc601eaa60b, 0x02ef8ca0c1615576], artifacts: 0x935de932bae8b1de, dropped: 0 },
    Recorded { workload: "paper_full", seed: 7, duration_s: 600, reports: &[0x97a5fc631ee9db75, 0xbcee77f63179dcc6, 0x7836092f3c19e219, 0x46db834b592e0552, 0x5650da777484ebee, 0x41fb076d726614e9, 0xdaf19f2a80d8b760, 0x94ba13144cb885a6, 0x3c358d401d68e764], artifacts: 0x521cc58cfc5d513c, dropped: 0 },
    Recorded { workload: "paper_full", seed: 8, duration_s: 600, reports: &[0x02f5cfa6cc115d53, 0xc188a53baab400a1, 0xffabb7a5e52e5d26, 0xf1c5e36d4f03ee0f, 0x2a9aed39bc1ca4b4, 0x5d66aeba809c420c, 0x08f78457966e8721, 0xe4b0091cfcaeca32, 0xf760e717d26b531e], artifacts: 0x3082f9c3863af9cb, dropped: 0 },
    Recorded { workload: "paper_full", seed: 9, duration_s: 600, reports: &[0x4fec76fded89d873, 0xfd47f7ae61479eb6, 0x7acfb9b6ce39fa7f, 0xc0099938aeff7aa6, 0x25da2d9cbce6043c, 0x0e270da1d7d467c6, 0x3f07aa57b80f2508, 0x78f4f19a278035d1, 0x69dc67249db8eede], artifacts: 0xba7978a88d7e2014, dropped: 0 },
    Recorded { workload: "paper_full", seed: 10, duration_s: 600, reports: &[0x67262066aa694766, 0x293d1b6daf4cca12, 0xbd1ed71008800a42, 0x23c77c6752ed9fbe, 0xc6e171f5158d7f2d, 0x78e3ba49bcc5a792, 0x78481968062d9906, 0x33dd4e1a75f95acd, 0x980f411467d806de], artifacts: 0xdc0e7e02339e84ad, dropped: 0 },
    Recorded { workload: "paper_full", seed: 11, duration_s: 600, reports: &[0xb983dc081f37b6bd, 0x422f48154f1283dd, 0x06b04db2b4346bf1, 0x168140202beb3c91, 0xa08761e2698f05a1, 0x85b19624ea2e5141, 0xb906f401d6137a0e, 0x25b746c5c6eb185a, 0xb68cb4650607068c], artifacts: 0x51e1d6fe193de976, dropped: 0 },
    Recorded { workload: "paper_full", seed: 12, duration_s: 600, reports: &[0x0066e512a2dd8557, 0xbdc57881c1f73c37, 0x60ac865232e2996c, 0x8af1872943b2ca28, 0x4c3f3101a69deab9, 0x22aecacc3da2ed5d, 0x2b7eb276a0b78738, 0x839bdbcb76c47de5, 0x0bc5560013124850], artifacts: 0xe85587762ccf338c, dropped: 0 },
    Recorded { workload: "paper_full", seed: 13, duration_s: 600, reports: &[0xea280f99cc2d541a, 0xa4e9e02d84aea446, 0xc8499fd23aa2890e, 0xf670cbe642e87b44, 0x34f5e2b40d923d1c, 0x2b98bd5e7ec96ef6, 0xb876bcd3df640b23, 0xf8c634d3c0bdf71a, 0xd49f6580deb0e81a], artifacts: 0x66902179d324cf8c, dropped: 0 },
    Recorded { workload: "paper_full", seed: 14, duration_s: 600, reports: &[0x81ff9d34b5d03d06, 0x98e139ceea6d2325, 0x1412c5d4414bacb4, 0x4dc22783eaf73f85, 0xe843f714af54c91e, 0x3a4667964e6dbcf6, 0xf3ba5162f17ac9dd, 0x759cf5dc4115a882, 0x3ff415f5ed0dd5d6], artifacts: 0xccf69bdf0bfd3bb6, dropped: 0 },
    Recorded { workload: "paper_full", seed: 15, duration_s: 600, reports: &[0x28c45e5055e84ad7, 0x6756087f79d0b8b4, 0xcea1fd2d18604af5, 0x510f8374b5e5bede, 0x4fb388335d169f54, 0x7a3689d2fbf5c479, 0x5a0ee1fb3f3d5342, 0xc3f6c5f4354b33d8, 0x1349886b1e36394f], artifacts: 0xe001ad12d9062448, dropped: 0 },
    Recorded { workload: "webserver_faulted", seed: 0, duration_s: 1800, reports: &[0xb2f2fd7e0019608e, 0x78eafe1be3a1f57d], artifacts: 0x0000000000000000, dropped: 33733 },
    Recorded { workload: "webserver_faulted", seed: 1, duration_s: 1800, reports: &[0x49fe485944afb1f8, 0x53428e35e46eb5ad], artifacts: 0x0000000000000000, dropped: 33871 },
    Recorded { workload: "webserver_faulted", seed: 2, duration_s: 1800, reports: &[0xef1e237218e6e0d3, 0xc023bd0037c00600], artifacts: 0x0000000000000000, dropped: 33904 },
    Recorded { workload: "webserver_faulted", seed: 3, duration_s: 1800, reports: &[0xdf140550054e1cb0, 0xa11ee1d9e815e599], artifacts: 0x0000000000000000, dropped: 33864 },
    Recorded { workload: "webserver_faulted", seed: 4, duration_s: 1800, reports: &[0x41aa8a23be6462b9, 0x0d8f817e389ff209], artifacts: 0x0000000000000000, dropped: 33780 },
    Recorded { workload: "webserver_faulted", seed: 5, duration_s: 1800, reports: &[0xf8d86c4239f50f6e, 0xdf621a55fdcd5cf1], artifacts: 0x0000000000000000, dropped: 33868 },
    Recorded { workload: "webserver_faulted", seed: 6, duration_s: 1800, reports: &[0xf00f31c660e7f46f, 0x3e15218bce9a2f5a], artifacts: 0x0000000000000000, dropped: 33844 },
    Recorded { workload: "webserver_faulted", seed: 7, duration_s: 1800, reports: &[0xb041fb60fd5112c4, 0x47574662568d7274], artifacts: 0x0000000000000000, dropped: 33864 },
    Recorded { workload: "webserver_faulted", seed: 8, duration_s: 1800, reports: &[0x6e7fdcedb835603d, 0x4fc7d45c72b8f5a5], artifacts: 0x0000000000000000, dropped: 33896 },
    Recorded { workload: "webserver_faulted", seed: 9, duration_s: 1800, reports: &[0x0056950873216469, 0xa4a8ca0e96c506bd], artifacts: 0x0000000000000000, dropped: 33864 },
    Recorded { workload: "webserver_faulted", seed: 10, duration_s: 1800, reports: &[0xbdfca2ac0600e92f, 0x50cfd1ac1a26c514], artifacts: 0x0000000000000000, dropped: 33792 },
    Recorded { workload: "webserver_faulted", seed: 11, duration_s: 1800, reports: &[0xe43143aee395bfcc, 0xd96eb36d3ddd4d33], artifacts: 0x0000000000000000, dropped: 33892 },
    Recorded { workload: "webserver_faulted", seed: 12, duration_s: 1800, reports: &[0x2d7822b40d08fbad, 0xe197e6a0d8b91896], artifacts: 0x0000000000000000, dropped: 33897 },
    Recorded { workload: "webserver_faulted", seed: 13, duration_s: 1800, reports: &[0x2ad77cf11cef1854, 0xdaed8b65cc3e89fd], artifacts: 0x0000000000000000, dropped: 33852 },
    Recorded { workload: "webserver_faulted", seed: 14, duration_s: 1800, reports: &[0x1aee81201f860267, 0x5507b7ae522963db], artifacts: 0x0000000000000000, dropped: 33724 },
    Recorded { workload: "webserver_faulted", seed: 15, duration_s: 1800, reports: &[0x0e36c39efb59ff37, 0x233dbd2230c7898c], artifacts: 0x0000000000000000, dropped: 33888 },
    Recorded { workload: "trace_replay", seed: 0, duration_s: 900, reports: &[0xafaa1601c703b8d6, 0x6a63ce90f9dcc3b0], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 1, duration_s: 900, reports: &[0x667bf8caf62a5e43, 0xabe472facf2f57e0], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 2, duration_s: 900, reports: &[0x97a946f6bbd9f882, 0x0927d550bf2756b5], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 3, duration_s: 900, reports: &[0xc7a52ea21fe92ba4, 0x8be17018a6ed453e], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 4, duration_s: 900, reports: &[0xb80911315514b1c6, 0x36997cb9d2b463b5], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 5, duration_s: 900, reports: &[0x800dbd9313aa7730, 0xbfc9022a1201518d], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 6, duration_s: 900, reports: &[0x2de601c0b74b5e21, 0x560d58497aa10e01], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 7, duration_s: 900, reports: &[0xef7748253a81e598, 0xa36c812a22ffd8cc], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 8, duration_s: 900, reports: &[0x6ca94bbaf42a8d33, 0xc696f141ed130624], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 9, duration_s: 900, reports: &[0x55be5a7b05a1286a, 0xcdc64329a6bc3161], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 10, duration_s: 900, reports: &[0x0c205cf077691df9, 0xb955162adad3bf69], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 11, duration_s: 900, reports: &[0x7748fcadef1c81f7, 0xedb6c9207acb8685], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 12, duration_s: 900, reports: &[0xd3a9a5e2ffbe9609, 0xf26cbfa59da7805d], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 13, duration_s: 900, reports: &[0xc09599d5bc70a265, 0x4f3be012cff59082], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 14, duration_s: 900, reports: &[0x4e27d20aa6fc4874, 0xb0377c471403672a], artifacts: 0x0000000000000000, dropped: 0 },
    Recorded { workload: "trace_replay", seed: 15, duration_s: 900, reports: &[0xddaebffd8cb0f551, 0xb2cf59a923458960], artifacts: 0x0000000000000000, dropped: 0 },
];
