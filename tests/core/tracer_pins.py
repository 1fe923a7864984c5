"""Recorded by test_tracer_pins.py (see its docstring); do not edit."""

PINS = {
    'acurdion-pop-P9': {
        'tracer_stats': [
            'TracerStats(events_recorded=282, events_skipped=0, record_time=0.00016044000000000518, merge_time=0.0034057679999999983, merge_comm_time=0.0008521680000000004, peak_bytes=4328, bytes_by_state={})',
            'TracerStats(events_recorded=376, events_skipped=0, record_time=0.00024025999999997697, merge_time=0.0012265119999999973, merge_comm_time=0.00030251199999999784, peak_bytes=8728, bytes_by_state={})',
            'TracerStats(events_recorded=282, events_skipped=0, record_time=0.00014447999999997788, merge_time=0.000594658666666666, merge_comm_time=1.2658666666666776e-05, peak_bytes=6352, bytes_by_state={})',
            'TracerStats(events_recorded=376, events_skipped=0, record_time=0.00022321999999997972, merge_time=0.00046209066666666465, merge_comm_time=8.490666666666202e-06, peak_bytes=6704, bytes_by_state={})',
            'TracerStats(events_recorded=470, events_skipped=0, record_time=0.000259179999999957, merge_time=2.5546666666664136e-06, merge_comm_time=2.5546666666664136e-06, peak_bytes=6888, bytes_by_state={})',
            'TracerStats(events_recorded=376, events_skipped=0, record_time=0.00024025999999997697, merge_time=3.167999999999574e-06, merge_comm_time=3.167999999999574e-06, peak_bytes=8728, bytes_by_state={})',
            'TracerStats(events_recorded=282, events_skipped=0, record_time=0.00014447999999997788, merge_time=2.4480000000003804e-06, merge_comm_time=2.4480000000003804e-06, peak_bytes=6352, bytes_by_state={})',
            'TracerStats(events_recorded=376, events_skipped=0, record_time=0.00023791999999995032, merge_time=2.501333333333397e-06, merge_comm_time=2.501333333333397e-06, peak_bytes=6528, bytes_by_state={})',
            'TracerStats(events_recorded=282, events_skipped=0, record_time=0.00016044000000000518, merge_time=1.8346666666672201e-06, merge_comm_time=1.8346666666672201e-06, peak_bytes=4328, bytes_by_state={})',
        ],
        'chameleon_stats': [],
        'clocks_sha': 'c46e61899718b8a61e55bba56e66f41e',
        'leads': [],
        'failed_ranks': [],
        'acurdion': "[{'clustering_time': 1.3257333333332316e-05, 'intercompression_time': 0.0034549679999999975}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 0.0012265119999999973}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 0.000594658666666666}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 0.00046209066666666465}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 2.5546666666664136e-06}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 3.167999999999574e-06}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 2.4480000000003804e-06}, {'clustering_time': 1.3055999999997403e-05, 'intercompression_time': 2.501333333333397e-06}, {'clustering_time': 1.3257333333332316e-05, 'intercompression_time': 1.8346666666672201e-06}]",
        'trace': (
            'c-rM%+fL*-5Pjz>BJFEvY?p88(R>VI&<Y8`2zKXX2flq1C+XOUo!Cw#-90o7G?B)sd!1C3J%7DF+'
            '&|y{^LGF6Sp1^J%g?vhhxhMQ@%r}k_tVRFQqq!@Q1VigvQ(wMdHhv8y+6MEDBejyi$g(=>`3npcl'
            '3_jnZFDA$(7UxVt$z)%_Y)YXx;_=U4JGNKocfUFOhVWi6gyvetrE}u;Ra)q8L+kI38-MSp7xsc>O'
            'miq2N=xxJ?%~_hM2>BH;9DE`~@uvTrpZ?B=5-g|@U<WZ8t#31Q4oRxtj_K=Yc8=9l@=T;sH%td<<'
            'D|1uO1T`@w{=~Wrp)PVzVO}lqRA8$!R8?A|Je%54sv=X|1etvuW@o%l^ch(YP?oZigBNhFrn~#k='
            '>aY4^&w2aZtn@JwxwRlz3l8fI%Z*oKVL=5nh^;?0=&zMft3%Pz;}AEmM@bBQl1%j|iLFQ3Q6fQr6'
            'cuaVpbd@UP;sfWpythJ)#(w)H(DL3FxnJ`oR3~&0gVDVX`uets{qJI2S5zxomL^ucxB78hh>N3)^'
            'Kafl(LendmByt=7&lMDL61vX(hQ7J;x2huxPh1FgfrzX7L(rmIsYiF~8CBbfXom0)<C|!cn1+ozd'
            '20Fd_wriYuWEiShu7iqi|A(;(BvX1TFh9%Zvk4;s*e3iMb9dN-RDir3+k&`J`eX~jA(Wn9$`43(A'
            '@Q$V+|*?NVy$A@3VJFoxoEv<RD?UO7sOR-YemTKD+3&z2e^vYZs4o7lqnV@wlox8K+F!^~A^7Eof'
            '%!@6TqLDPzY~DfxWty*6)ZnH?n*d*u467foQ!Q*0wlbj-lfhgI<FMu0w<C3SVlC3f)@E+V&)ne2+'
            '*HYk%pI~hARYTo;<icgr|~(f+Y1iBK5!r?x}M#EMMrLvFgq(VJaBPYUYY_fw(!zir~+qzDj`c_y6'
            '4_TDo$qd;+8ps+YA4|KKSRNoOJ9;P|E~5I0XjMG;j*0?gX|?Pgl0ljmtAV(gv|PID#$V2+srl2*f'
            'BOZ9lSM1Nv|b0FL75AR0r*#01s=8-@*RSair717%C>?6lNcm<)jeLKiBh<~2y1btFtoD-qPpm{$i'
            'G*b-#$)Expj*I$YlW0^TaGc*~BCWf{S&9F6SW=@Fx>N9c416%?E3|#I)<gDO2DyCw~4U-HL%bd+I'
            'IfNjK_v#Lw$(KE|!wGB&CrlBGKh63v%ox7RnU|r+&@+9sUIk#-8UVB2FDF>VFF^m*Yj8_C?sHJ9`'
            '(h<`8lBwH(1xQrGJ!obqkJ;b19t%oMF%hx8^F+%IO*x94Izrgg(xf_<HT$-j@dNjd2bqgxf6UT4l'
            'D}#gTWv)8iQ;Ak3yc&AvT&-<O%vlBERvNi>}06VGXs5$3#^`>=o2X&ur48X;>Zc%tfXQiizaT9-*'
            '=k-IatW9ucAp9HY^23>_ziT%iN5G^@ZB^oT@m<H09g2|kem6cPyia`7op=5AY^JTkg?Tbseb9s12'
            'o5RKx=q3yHY4tH<w9~n>9i~;c-#(+lFWpmq6(a~|@*K>QDW4_Su=Gd^BZ_`TQo6Z)^7+HJ!mVlm{'
            '>3uEMILfRN-*HxH*61YZ*p~yU^pRmnK$3`Y624o{lW*MfoEKj&y+L@BJKLgLbXP=td0DO++x6VeS'
            '9ANGe80ZutgVUO*u-FMJ}N8$2pQ$7dv!kf#+}d0bk*R<qnYe(jJaROGV6&YCjd5*2iO#w_0SHmon'
            '_KmQ|W<Ng2I-Q*3+l%!?7K|lckF5RTExk9irnW|JuiFxbgOGh7o_$@Eyosob6XE^+})Jj7Lun%?N'
            '=#04YkDH-<QU-cxP~UFMh2)%p@T9APqnD6u9GB{m?JE2>D!sUpd|DiV_kg>LXyksOh;6JMF*hjaF'
            '2O0+V+Bn@#T>3#%pz9j9i-Ib&z-rS+Ytr{z*C?n5VHFgEpGrNAENn+yfvwJ2+eHX_wd4y-0+N8XQ'
            'O03JY?zzSqHI%r;(p<m9FP2`2TL$I<`J^!}lIH;x&OD%Y+v#FWJKd2#n;;i~g<J$SauL~+OnlsOO'
            '52H(jaWvVD(!TtL{_J29BtV++KN>;DC7Vg*bvDRi|g@E&=m|#VqNz<<P5R=#)B(?IR?qcJtlFcF-'
            'Yw+r$laZDyW7C<|1=~z=UdN3q@E%m6sZd_;M)f@Rd0Ch^BVC<YHZyJmdkf+{U9xfjRe?9*DM?`~3'
            '6c(0q$Sm3p?xk=Sg9nA+_^Us^BqrC09)_R3dd!%m&u7MoYug2Gm8)m>^eFZ6cxQg0V=Q*A(nh`r$'
            'X_Ku!y?`(1mhQ<UUmtmZk$6qXTGxbt8bK_$#G-mU2rETILccGECIB2&&qjuinkeI0y<^+|(&Od5J'
            'Sy($|VYTDNgtTy@)=g8*8K8NRS7+N(keq!L_GFd9?doW!daU;C>ZAowg*CgOFjMx~{W-6Ou!}?U2'
            '!}RL#Oh3apJcqEu&1vSZZjy?oiQHcFW#HOlUUH7u33}PuVs-pp~%0jc^J@Pac6Ma@L}V#ESeE2|M'
            '-;u>Xja5F*_Is+YZKgYs2=?me_Y_>v~R%OP}w%%oF4MgB*hi$h@O@Gc6%_;*Qx^SLSpHu5l=EMdZ'
            '8Ssld&K9Pkpw7nyR{{9p(i1OAF9Lu|3HF%Av<0s9&glJbS`YxF;O4{2HLmzK9|0xnqQIhue-8#gp'
            '!RK}`h=SJo0DP{)`u5kZDieji=4CRY)^+Nv-)Bl+9'
        ),
    },
    'acurdion-lu-P8': {
        'tracer_stats': [
            'TracerStats(events_recorded=219, events_skipped=0, record_time=0.00022784999999997838, merge_time=0.004211178666666673, merge_comm_time=0.0013023786666666731, peak_bytes=18928, bytes_by_state={})',
            'TracerStats(events_recorded=315, events_skipped=0, record_time=0.0004472099999999736, merge_time=0.0021069786666666687, merge_comm_time=2.377866666666839e-05, peak_bytes=27568, bytes_by_state={})',
            'TracerStats(events_recorded=315, events_skipped=0, record_time=0.00044720999999997297, merge_time=0.0, merge_comm_time=0.0, peak_bytes=27568, bytes_by_state={})',
            'TracerStats(events_recorded=219, events_skipped=0, record_time=0.0002278499999999833, merge_time=0.0005704826666666669, merge_comm_time=1.48826666666671e-05, peak_bytes=18928, bytes_by_state={})',
            'TracerStats(events_recorded=219, events_skipped=0, record_time=0.00022784999999997865, merge_time=4.3199999999986305e-06, merge_comm_time=4.3199999999986305e-06, peak_bytes=18928, bytes_by_state={})',
            'TracerStats(events_recorded=315, events_skipped=0, record_time=0.0004472099999999731, merge_time=6.474666666665685e-06, merge_comm_time=6.474666666665685e-06, peak_bytes=27568, bytes_by_state={})',
            'TracerStats(events_recorded=315, events_skipped=0, record_time=0.0004472099999999736, merge_time=0.0, merge_comm_time=0.0, peak_bytes=27568, bytes_by_state={})',
            'TracerStats(events_recorded=219, events_skipped=0, record_time=0.00022784999999998505, merge_time=4.3199999999986305e-06, merge_comm_time=4.3199999999986305e-06, peak_bytes=18928, bytes_by_state={})',
        ],
        'chameleon_stats': [],
        'clocks_sha': '42f3e1e22321c15041a60408907443c3',
        'leads': [],
        'failed_ranks': [],
        'acurdion': "[{'clustering_time': 1.2672000000008704e-05, 'intercompression_time': 0.004248378666666674}, {'clustering_time': 1.243200000000666e-05, 'intercompression_time': 0.0021069786666666687}, {'clustering_time': 1.243200000000666e-05, 'intercompression_time': 0.0}, {'clustering_time': 1.2672000000008704e-05, 'intercompression_time': 0.0005704826666666669}, {'clustering_time': 1.2672000000008704e-05, 'intercompression_time': 4.3199999999986305e-06}, {'clustering_time': 1.243200000000666e-05, 'intercompression_time': 6.474666666665685e-06}, {'clustering_time': 1.243200000000666e-05, 'intercompression_time': 0.0}, {'clustering_time': 1.2672000000008704e-05, 'intercompression_time': 4.3199999999986305e-06}]",
        'trace': (
            'c-qZe+m4(@5PjdT7%8vgHGQL*iSjWUXBAnp>}WU1OPqXrU|@i*zSJphV=v<!Bdh3h3OJ{$p?-S*^'
            'z!B9&$pLPucyD&>FXbF-#)$n(wx4%eg6IP*I%l$I_tAJ+p{~@XaDr&+qXYX=Je0g>Gb;d>HYQVZ>'
            'RU_q)yK#du@L{Rv%USW7>aLC-a}uP4!&ee%=1+cHMS#+sS-yzgLyH7_I8+{zujQZe>*E)#d)D@w4'
            '4}{NLugR#!70jk=9SUE3diG`8DeyR9G1^a+D%5k%GPQ0<n1sMjGhB81&wtZKJ1LMuY3Z#&v;AB0Y'
            'Xup5lk?N&xuix8S_NB4WD)6|O~cB8S~?;OOp*H3NarVUB~_CdRd?N9s7cVB(Cm1AAnSaf(amNK`I'
            'n%k!wPF2X*x|7wbcFVAyW>>MC4`WaerrYIfRQF*pX#`VudV1Y%`(QE<rrQN;boXH}Sp-veKKkx=2'
            '9sNQaSVfS5UBndy?x7pdinC@?e(|6T5)?<{SDwAXnyOTqV@yyO>K=PsnE4n){J1ho9(tEnEJccse'
            '}9A;7xnH=D&s>IT-)HL~I9Yx@-J{y6WqPkQ@_`g9_VSyM2&vbGUX7;4T<AP}8&s9H-iA!RZPE2g;'
            'chf#U>wH8_QVV}&f#Y7E?dT0NIlPi~1uD67Lc*`Jg#RatP6#KvyRue|Ik1R&AoEI=a#80qcy05t-'
            'T2z3^ql>&^!cWVz|5qLziv+$f0UL?bt!Aq;RVbptvgZtp%%hg+VC_dP$xqb+9<wI*jgf?r|1~X98'
            'yRH|SfnjtW8{OVYdA9)^EY=1Luo?{3?iyKPuvh~ygu7s{_EyKc^mDL4={LP4je+^}{f7!Kb?=p1Y'
            'Tv0~6M!BT>?~9zgvw2im+K_eZWJppS01oxAy#hMyc(;OVg=^V16Cu%%1x)2N*Gmi6zSrLwSS~E`%'
            'Na+6}^qAvtBi|c7ZMHqdl@Pu7j#dc08zQxQjK<n{d{S@^(<Q9i<I5B^64WupWTYc2Ef)r42Pb3Z+'
            'e0X+UW^YFz;3O|&xL$PAH^CR-cO*K!I3PG~Y&B(a4=999=$Sz{|B!SVx78*Hj3zlPJsS6fyVBQ!='
            'DTWtx}H+a%ucQzS6oV0@~I4o&w4JTMX;YkCG9`%qoX-C(E`k@Hy=i*hWwEygnzrHx6=!D*#>s93;'
            'OU04~L@n*zLe{~F)kgy?<aQn-tXJ`b5s%1uS)MS^%NikJB<$vdH7H@k9da&~Ck%A4PDmIDyM1x%f'
            '-**oA!lHD#y|t>g^ZD~n={sX!}_Wiy6`I5SP&#h$YP93f?L;)M!QPVm>rVjNf`w)h}Yhfn8Cds#G'
            '$?w=MR4>$AJ9d^*k-+Z?A`bsD;J(!=C_hAb+rVoa&)4e@9hBasC$9MEjVJv!(s<*W1#HN}v^*($G'
            'V?;QX?Wb&wo3)<1@J55snl+2gRWRxfmB7`CH)83&GaWub|}z#U_u9JvA8^#+QtWe>Mcfy3bdF7P)'
            'Xz?~m6HW0i8_5*~s^ApDog15jOfbjP625I@W4;60<OLwH#&(|SD|LP7d)=~ZF9;ts7sE=mHXm(DI'
            'CDH6tv>y6=wI829b|=s6jfegPqlIgtmkg~1vLhqXqwB|U<EljzjU@(|cywfdof^+o|J)v3KSj=?n'
            '5AfGGX=DKNc9v|x7c(}#-xx=y&#?3Qtg^_8euvK$hGNgfOJMnuB*~{uf4J9oV-{eopwPwxh3Q^>2'
            '$($5|C@tc>&THEd{SjrvlSCxz9p6>jmlLmbTZV(+kr{K(0(@zxo|=F=qo@0Vf9io~aPcl&R377m_'
            's@^giTtwn6UPX{#GQKG@hK9f-B5#~_<am#3C4-JgoIyxET@JQWk^N+3-fDa=?nv?yi6+B=l9$j&F'
            'RGsm6_r2_LipP`iUt0ehNPfpxOq$%b%-W^_uQ|T4XZG>`lZZ)3UXfCrhw+77Ze0o;Ot(N3AJu}-Z'
            'w^p3n2<7VBT0FPWL~d<v9hlqs+_aQiBgt)gTDn<oojA7<%H_Guyha-~hd9;qNm4yBK2*al%DZYjc'
            'CExR<$9UA)u{EoM*Zu{+uP^Yw>DXJ_J*w<4?g=w60O?+w^;TTtN6xlGfu*rF<wLBHTNL7t{BY_Do'
            'R!}pXm1Ttt#6%Kb}0!$xj|Kp13bYVLY=uGBC9W<}?A^3#JjloF;(`Oe=ypO^o(}=|nK6$q@sy7Qv'
            'h*412-!BAC;pAqz9zC!-lJ^YP-I`)no}?Ua#<7CK}mVALxkIljp!CfWCzXMbvOpnSl7re8)H+1wv'
            ';$TWg%a!K2tSDCIEX=HPE#38c?vdJUthRi|8=H4KSEZ00E)Q3<ID_vc@a^omf-gu-`Uf+)X?|mt{'
            'DD!4xnKv?-&-UYJ#%L4cxS+-zIhrBb(Y_(ulOqWbmQpPOxTj;t_T@+dghkYf0Pg7(vb{Ny00H^Tb'
            '>}Dn+|wnb`*WnwA#z^m&`|^!N&6m`VTFJso}d8INI^y_zXwQ-fF$;y0Mbf9MuNWwNQ;0ZPN4wONk'
            'K;1zbVLE&yJ#L*k}NlZ}1!Y2EW8NBszgKW3-u5BLdGGk(%D+z1WCkyMZJ}xW7Ut`hg^&0Tv|N5hM'
            'xi0Bx=?Xn^_1b_Gd7+h3IveL<4YVB3-G4AKk%6L&f)`I}5lxXvJj@qjgeLT``~Sf(7XK`|!T9i)g'
            'CstgqRgOu>@StKZQ2r1%)>IH=!Atk(fmJSMiLW+1-R1v($5G*ZbVTPc4adTTs&_!HPOsMEBvyZo?'
            'oZtex*~feALWB-VRM`>Xh9%L7B*UJ#R)Mm2-1-K}9`1=Mls$1F1ZD5IWfPP=+;%CHJ#m!<W$(Dv7'
            '?eHXdW<78VoIHKMMhuCsSx?GWQP(aAqUolSnhzzP^L>sjy!?6OZF*Y$UCs!#F7V8oHE@?a^wk|Vz'
            'OTeL*9XPES5Z=l9lONk|PhYorS(740(^JkM+a(Q7UBJ6I0t7;x6KfDw(3yj6U9)I+>+PO+(@yJ8p'
            '~8jPU?RyGQNCqr4Hv%DZcxH`rYpA#Wt`9=tUuZ^WzezMAI^_SH_v8wtDzZx@s|;!=4>&GQC3YA@u'
            'C1m1x++AJkUnxt@;YL`;P8P!R5C@rNLrW6Mydtgd|JW2|ZO3dStC0LwC$>UiD<WW-S)M6fwEbZbv'
            'N*)GtAddnkn{1*|=JCjqG0x+PqH!PfM{&t^V~=dtIOK{duNC{_Tz{5ki1t`3%K-$8Y_3U53E**_l'
            'LH7i&RnOK62RlkAqNn!hPiGnC4fh{I7jaGb_)+jII|CMaG9PhX^@Ky76@`rdzI<jk_NfR{eU13c='
            'p{vAQxE^5agc5B-h2|DBqBKCoOtcZhSp1d{J&jbN!TmB`pefcMgSc{{v6-7oz'
        ),
    },
    'automarker-bt-P16': {
        'tracer_stats': [
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996344, merge_time=0.00012648800000000706, merge_comm_time=7.128800000000789e-05, peak_bytes=7104, bytes_by_state={'all-tracing': 7392, 'clustering': 49568, 'lead': 892192, 'final': 95296})",
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.0004654800000000856, merge_time=7.24880000000051e-05, merge_comm_time=5.568800000000686e-05, peak_bytes=12272, bytes_by_state={'all-tracing': 12448, 'clustering': 6240, 'lead': 112016, 'final': 6224})",
            "TracerStats(events_recorded=174, events_skipped=522, record_time=0.00012720000000000076, merge_time=0.0, merge_comm_time=0.0, peak_bytes=12272, bytes_by_state={'all-tracing': 12448, 'clustering': 6240, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996257, merge_time=2.3792000000001645e-05, merge_comm_time=1.659200000000277e-05, peak_bytes=7088, bytes_by_state={'all-tracing': 7264, 'clustering': 3648, 'lead': 65360, 'final': 3632})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667600000000377, merge_time=3.422933333333943e-05, merge_comm_time=2.702933333334056e-05, peak_bytes=8816, bytes_by_state={'all-tracing': 8992, 'clustering': 4512, 'lead': 80912, 'final': 4496})",
            "TracerStats(events_recorded=792, events_skipped=0, record_time=0.0005850000000000187, merge_time=6.2773333333338704e-06, merge_comm_time=6.2773333333338704e-06, peak_bytes=14000, bytes_by_state={'all-tracing': 14176, 'clustering': 7104, 'lead': 127568, 'final': 7088})",
            "TracerStats(events_recorded=198, events_skipped=594, record_time=0.00016056000000000322, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14000, bytes_by_state={'all-tracing': 14176, 'clustering': 7104, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667600000000368, merge_time=4.069333333332065e-06, merge_comm_time=4.069333333332065e-06, peak_bytes=8816, bytes_by_state={'all-tracing': 8992, 'clustering': 4512, 'lead': 80912, 'final': 4496})",
            "TracerStats(events_recorded=126, events_skipped=378, record_time=7.199999999999823e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=8816, bytes_by_state={'all-tracing': 8992, 'clustering': 4512, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=198, events_skipped=594, record_time=0.00016056000000000322, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14000, bytes_by_state={'all-tracing': 14176, 'clustering': 7104, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=198, events_skipped=594, record_time=0.00016056000000000322, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14000, bytes_by_state={'all-tracing': 14176, 'clustering': 7104, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=126, events_skipped=378, record_time=7.199999999999823e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=8816, bytes_by_state={'all-tracing': 8992, 'clustering': 4512, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.0001875599999999617, merge_time=3.269333333335081e-06, merge_comm_time=3.269333333335081e-06, peak_bytes=7088, bytes_by_state={'all-tracing': 7264, 'clustering': 3648, 'lead': 65360, 'final': 3632})",
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.00046548000000008646, merge_time=5.3066666666663764e-06, merge_comm_time=5.3066666666663764e-06, peak_bytes=12272, bytes_by_state={'all-tracing': 12448, 'clustering': 6240, 'lead': 112016, 'final': 6224})",
            "TracerStats(events_recorded=174, events_skipped=522, record_time=0.00012720000000000076, merge_time=0.0, merge_comm_time=0.0, peak_bytes=12272, bytes_by_state={'all-tracing': 12448, 'clustering': 6240, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996257, merge_time=3.269333333335081e-06, merge_comm_time=3.269333333335081e-06, peak_bytes=7088, bytes_by_state={'all-tracing': 7264, 'clustering': 3648, 'lead': 65360, 'final': 3632})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.070999999998757e-05, vote_time=0.00030442666666673224, clustering_time=1.7682666666666083e-05, intercompression_time=0.0001456880000000084, space_samples=[('all-tracing', 3696), ('all-tracing', 3696), ('clustering', 49568), ('lead', 49536), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('lead', 49568), ('final', 95296)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.8270000000000786e-05, vote_time=0.0002972266666667195, clustering_time=1.7682666666666083e-05, intercompression_time=7.24880000000051e-05, space_samples=[('all-tracing', 6224), ('all-tracing', 6224), ('clustering', 6240), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('final', 6224)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.8270000000000786e-05, vote_time=0.0002972266666667195, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 6224), ('all-tracing', 6224), ('clustering', 6240), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.070999999998757e-05, vote_time=0.00030442666666673224, clustering_time=1.7682666666666083e-05, intercompression_time=2.3792000000001645e-05, space_samples=[('all-tracing', 3632), ('all-tracing', 3632), ('clustering', 3648), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('final', 3632)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.323000000001337e-05, vote_time=0.0003020266666667066, clustering_time=1.7682666666666083e-05, intercompression_time=3.422933333333943e-05, space_samples=[('all-tracing', 4496), ('all-tracing', 4496), ('clustering', 4512), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('final', 4496)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=2.0789999999988422e-05, vote_time=0.000294826666666732, clustering_time=1.7682666666666083e-05, intercompression_time=6.2773333333338704e-06, space_samples=[('all-tracing', 7088), ('all-tracing', 7088), ('clustering', 7104), ('lead', 7072), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('final', 7088)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=2.0789999999988422e-05, vote_time=0.000294826666666732, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7088), ('all-tracing', 7088), ('clustering', 7104), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.323000000001337e-05, vote_time=0.0003020266666667066, clustering_time=1.7682666666666083e-05, intercompression_time=4.069333333332065e-06, space_samples=[('all-tracing', 4496), ('all-tracing', 4496), ('clustering', 4512), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('final', 4496)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.323000000001337e-05, vote_time=0.0003020266666667066, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 4496), ('all-tracing', 4496), ('clustering', 4512), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=2.0789999999988422e-05, vote_time=0.000294826666666732, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7088), ('all-tracing', 7088), ('clustering', 7104), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=2.0789999999988422e-05, vote_time=0.000294826666666732, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7088), ('all-tracing', 7088), ('clustering', 7104), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.323000000001337e-05, vote_time=0.0003020266666667066, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 4496), ('all-tracing', 4496), ('clustering', 4512), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.070999999998757e-05, vote_time=0.00030442666666673224, clustering_time=1.7682666666666083e-05, intercompression_time=3.269333333335081e-06, space_samples=[('all-tracing', 3632), ('all-tracing', 3632), ('clustering', 3648), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('final', 3632)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.8270000000000786e-05, vote_time=0.0002972266666667195, clustering_time=1.7682666666666083e-05, intercompression_time=5.3066666666663764e-06, space_samples=[('all-tracing', 6224), ('all-tracing', 6224), ('clustering', 6240), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('final', 6224)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.8270000000000786e-05, vote_time=0.0002972266666667195, clustering_time=1.7682666666666083e-05, intercompression_time=0.0, space_samples=[('all-tracing', 6224), ('all-tracing', 6224), ('clustering', 6240), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=21, effective_calls=21, state_counts=Counter({'lead': 18, 'all-tracing': 2, 'clustering': 1}), reclusterings=1, signature_time=1.070999999998757e-05, vote_time=0.00030442666666673224, clustering_time=1.7682666666666083e-05, intercompression_time=3.269333333335081e-06, space_samples=[('all-tracing', 3632), ('all-tracing', 3632), ('clustering', 3648), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('final', 3632)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': 'dfc1c5cf34970132f05d8bd4a58b0324',
        'leads': [0, 1, 3, 4, 5, 7, 12, 13, 15],
        'failed_ranks': [],
        'auto_markers': [(21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True), (21, True)],
        'trace': (
            'c-qZe+iu)O41Ld6EYMfQ9nMW72l*JoF^T{|64-5Cn)=%-?Mn7)rP<-3hO%wAO%?a(a7QE$IV1k@b'
            'bt5l?(fID`-j6XI(+~6_~ZWRGsVM?$FF~V{r=fB)Y!%~z6nii+9ow!L;Xc+$Ts8}@(qO#-+uh~d5'
            'DL9KO7DZzYb3i-@hE5%z+L!2fFRQ|1^J6{~i1PHi!63#(HyOPX9jrbGSNOd8R}B-T$32(X=K8clx'
            'q1{_bv)GydVD38!Bm^1;3QLfgjQ*4&0qw!hyw4FYM{{)&CJCmOFmxA7d*f}pOy;-1}gPzQqg{)&J'
            '0*FinH3g&d}_%p5rwXyRpb<>wWEr9KON3U1o*;Q*^zWi@%=ad3W>G)_E8h)-@8)0aBx;Fe=hi+kL'
            'cf96?pX<=+2<>nC@AtAs9ZZS6Mr2@Y_979%*z8pzTi=yZ*tSgM^n8iDo-<L<@TR+O-yR>n{L^Q$C'
            'ptxfn-Mhi|8sgy{htQt{(A-Dzl$vP_;BCTrNQq%(yhJyc+T|Z;LgG7C$I7DiFNlv&Kj{g7FHouov'
            '^H7VHGmeh()|lSTpF2Oe~WL!-qyh$3$d!&WPxlh;a64XCc#V%06|H51$d9eE8US^5J7M7HM4eP|Z'
            'm;`bezqBW-mbN%eeWJ*PNfPPwRz+${U`0^_Y}BQ_DNI%30O^${ButC0Asv15${kix4Z035HA0C0X'
            '7JZcz!n{Ge)nP(s2cNGiHaH+5(p(8FNI}|$0g%s35H65m2C8Xgo<TYJ}f{xFu=dL5__JSy0CfBy<'
            '1<>`Hh|+7)N?U89G6AS8D#JmQQ5g;@ju@Zze)SQD3|t~{K;bHh0}3Y}cNt6fU5k0uMl>rnMk?$uo'
            'Xs1CZ!0^Bb|TJj`s8rt$7UlU4JT+0X?}_(5ox#@trC?|Tc;we8<kp(sFbQkrS<eaVr{QZ?OcmANO'
            'kJ%YaS<Yq9515Tz*_9E*YVb^$FN4o_t75l2GN$C&>~elg25Mgz9iUNuJa(Op=grDnC5>x!U6%#n0'
            '4}C}SAPPSim_7#4gC!t5*^1%zQS$so+m(5-+l+|duS<PSb?T06=JDZH(ZpyQ2w1RWMrRU*~KCW=*'
            '!RIz@fBBvUv+WMi2ylSjU^<xzUonVz|Pc^oRe2p`*!{N2z;2NM|gMXE%cB_W<m+NsxNGN1M10glb'
            'qYFt|kS?Tad2}Ih3(|!YE{`rGbD7WAep(lGKV0x~O@>u3OdXcKT<Wm?g{i|Lm`fd2!Z3BXZ%dagH'
            'nES?Y29`+HCfX|rtU4*Vz`3~Q-_<lT<Ulu7v>K4a=F~`elE-%u0pCM5_wzqq83riBvC1okkd~ktx'
            '_r>ub)ejQZAvOm`v8ol{4(^HA|S$_DurHm5qDr^V)(>1gZh}u#i^g!$JqbfYsRVKo~*_J`je0!w1'
            '3;a9G=!%anV<e+yZcW;q&sY)XobVJ9r+5W=vIV-UtA9Ksk@Zw$t`a6=g5C-Le=s!9j(R3a65%}_-'
            '_CswUXhZF4flX$eyQN0~IzMNFNKXeYShz1?QE22SNw(=*v-yu8(7q~CQz=Rt{3{1R}v#78I>rm(T'
            'H-ie^`zT}LJ&7_V+$*T!4s{NHRrQ8e!5dOdZ^-PNg*tB~`S~{AFyrB^j(*YN6|RYnaMKJj4%#x~P'
            '{rP!La0L9WgM#58(9cdXse7v6-(iqCu+ZKGR)cVO){Rj@D>?J8y6xh+VJ)mNE_EWEZXqa7)TqIQ{'
            '6%u?CTP9Ma5zRYbq8htg2Y3xUQ-cqbhB{sKuzL5~Ijz2dP#iNRii$Qb{FBQBVt08J#-<15&paX@%'
            'Kj{cjATVkoWh9WIYDlhV<FEcp~tJbkscTamZUxM>g648J{jAoUP~;B7zkE?1aUR-`pa$`h?K+bLZ'
            'iSXM-y6kq|_;mDI<D<FHpBF&=DxKzQJ<SCAUj`&fL+%YQ7Sp^BJ^Vm|bI!f@*V?Y7FmEfQIY5{*a'
            '%<Mg^S|?!ztlG*@v%1T+GTE%|x{-aC?nX}8-^eRF90fIx%MCp15vJtW|8dHWYcPxan4Nld<UCBin'
            'ISIHqUjg(r32KpSJNVSPu7n)G<5cu6;omUS%yb34`zp;WdMumFFOe>16a&@*>PyOk6zRJvJ=s=WL'
            'Q3z9gCKQWqDe5Hd+=|kkQ(C<aO^Oqd}}B84bFDB%?t$V69trX4)HiQq=LJR>zZ4WlzeDQQMHIva{'
            '5VOb0o`uH{TJU6@unhU-boxfEV^Fv2WrWyh+OIiZCdf{m7P2sT>GLF=?*IfwC*6m-}fBqbeo2PBj'
            '(=dO+M;B=3DW9iE1wLBXjn6AuU%i{vkbY%!z9#>Sdy)&mGr|wnc)!mAMqF-favsJ6z;v#n+N5d4#'
            'w?ytW6Z%pr^fsKGI#2lmjztEn;aHep8OOo|D>>dm>{rY&`3UMcCbFQUV<HPunp*_ry;mnY(Cx@)V'
            'gp3;d?GTC%|JNrr0fOhnaLiB^hQcwpaPim5gkBM`hse@S~RnjDr$vr)~bcGR6m?u83R|Xy0#Yrs6'
            'nc0qHw-bTIdPKbhcHx))HRMWSPWtW3Q^4y#Gk7<cgKVrwg_KAi7K)v@$6!OBd`aKy<kh%kb%fs*U'
            'x0>B|By@<2ostPGI5Vlbcyf{eOAck-wMf*{JM3xq9?Iv@sG8Fj&aNSKQa{E<}J5dnEg_C&y2NOnc'
            'QTL_fgJBe^)^+Q}#3UTE0V_d5g<H+j=xug{2C@4m`{9L+fdOFT&zYLK;wydn5JkUfR3yr$|YWLEp'
            '>+-7FFIMWDn_ODs27~&VO&k>2IB`&Evx$Rp8z&BGZZ>gHc=I2@{nWR>UnLS8FkPU-B}NFuIADZ8k'
            'xPsa$a264fi{;IA!u#WqSN?xp0pf#r{YN~lkX~eQn$efL8BWmLelJ(SRv?l16D|S-V!SW#ZuL*WN'
            'Vd7+IcBz<|T4FC8kz0F_GUXGbPQ;L_s?>6~^aPE3LxZfMLiEP*ru&dp}iGu25C^&iU!8y*R&~o2S'
            'Ph1y(2!HdsVJ*x*S(Y@zl$2?+8MoCE~#AUFvK-a()(%_6IhH+dUbndT}0f0&Ajl4r0$OoG$}I+90'
            'SA|XNU0`<t_E)k9(cgeZT_ZH&FsmD0->OqczVwB5|>Z^7zla>;0FsX1Zv(g(1`O$qjD&VP14kUOe'
            'lLHAh8Ch$v-;qon9YHgW2P|li@qi^wt7X67Emmf2zF(D<SsU_KWo6bT{nc5SP}gT_9sH~BG_97?r'
            '0PzS9RXPHjXHm^w|X4Ag6vRI*N$&@w~pG<s|2ZaFO#H<%WqNA@}<NVYVr+A)LL+Rl1UnU2@oU=Zc'
            'Q>tqi+|2q`_@TCTUbJFdw@8wj^Qqlx#?{%@%A&;s!|c57z*}RwQnKL}zgg5Nt!@1_<<Aw^Sp0J5F'
            '}K;Pyv4J7jSC!<L;ixcxE6j~m>$MAbI7bfa6;i*Dq032&`lcq6|{d`o)qje>4~yEc{(kl+6Uq@-!'
            'r'
        ),
    },
    'automarker-lu-P25': {
        'tracer_stats': [
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00015484000000000724, merge_time=0.02269709200000002, merge_comm_time=0.008720692000000018, peak_bytes=15008, bytes_by_state={'all-tracing': 212208, 'clustering': 120328, 'lead': 403792, 'final': 174544})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0003046000000000225, merge_time=0.012032092000000013, merge_comm_time=0.0021824920000000202, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 22240, 'final': 5664})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.00024515000000000794, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.0002451500000000079, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00015484000000000534, merge_time=0.005244392000000011, merge_comm_time=4.359200000001069e-05, peak_bytes=15008, bytes_by_state={'all-tracing': 41360, 'clustering': 11392, 'lead': 15328, 'final': 3936})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0003046000000000225, merge_time=0.005873622666666675, merge_comm_time=4.162266666667483e-05, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 22240, 'final': 5664})",
            "TracerStats(events_recorded=410, events_skipped=0, record_time=0.0005042800000000085, merge_time=1.8063999999999927e-05, merge_comm_time=1.8063999999999927e-05, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 29152, 'final': 7392})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.0004061900000000011, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.0004061900000000007, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0003046000000000227, merge_time=1.3253333333332687e-05, merge_comm_time=1.3253333333332687e-05, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 22240, 'final': 5664})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.00024515000000000794, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.0004061900000000011, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.00040619000000000093, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.0004061900000000017, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.0002451500000000069, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.0002451500000000081, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.00040619000000000093, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.0004061900000000017, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=307, events_skipped=103, record_time=0.00040619000000000126, merge_time=0.0, merge_comm_time=0.0, peak_bytes=28832, bytes_by_state={'all-tracing': 79376, 'clustering': 21760, 'lead': 0, 'final': 7392})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.00024515000000000745, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00015484000000000534, merge_time=8.954666666668304e-06, merge_comm_time=8.954666666668304e-06, peak_bytes=15008, bytes_by_state={'all-tracing': 41360, 'clustering': 11392, 'lead': 15328, 'final': 3936})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0003046000000000227, merge_time=1.3253333333332687e-05, merge_comm_time=1.3253333333332687e-05, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 22240, 'final': 5664})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.0002451500000000067, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=235, events_skipped=79, record_time=0.00024515000000000745, merge_time=0.0, merge_comm_time=0.0, peak_bytes=21920, bytes_by_state={'all-tracing': 60368, 'clustering': 16576, 'lead': 0, 'final': 5664})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00015484000000000453, merge_time=8.954666666668304e-06, merge_comm_time=8.954666666668304e-06, peak_bytes=15008, bytes_by_state={'all-tracing': 41360, 'clustering': 11392, 'lead': 15328, 'final': 3936})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=4.920000000000271e-06, vote_time=0.00013011200000001989, clustering_time=3.92906666666689e-05, intercompression_time=0.023114692000000023, space_samples=[('all-tracing', 7472), ('all-tracing', 7488), ('all-tracing', 11424), ('all-tracing', 11456), ('clustering', 120328), ('lead', 112712), ('lead', 112744), ('lead', 178336), ('all-tracing', 174368), ('final', 174544)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.012032092000000013, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=4.920000000000271e-06, vote_time=0.00013011200000001989, clustering_time=3.92906666666689e-05, intercompression_time=0.005244392000000011, space_samples=[('all-tracing', 7408), ('all-tracing', 7424), ('all-tracing', 11360), ('all-tracing', 11392), ('clustering', 11392), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('final', 3936)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.005873622666666675, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012627200000002014, clustering_time=3.92906666666689e-05, intercompression_time=1.8063999999999927e-05, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012627200000002014, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012627200000002014, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012827733333336047, clustering_time=3.894400000000256e-05, intercompression_time=1.3253333333332687e-05, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012827733333336047, clustering_time=3.894400000000256e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012635733333335886, clustering_time=3.894400000000256e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012635733333335886, clustering_time=3.894400000000256e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012635733333335886, clustering_time=3.894400000000256e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012827733333336047, clustering_time=3.894400000000256e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012827733333336047, clustering_time=3.894400000000256e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012627200000002014, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012627200000002014, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=9.23999999999977e-06, vote_time=0.00012627200000002014, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 14320), ('all-tracing', 14336), ('all-tracing', 21728), ('all-tracing', 21760), ('clustering', 21760), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('final', 7392)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=4.920000000000271e-06, vote_time=0.00013011200000001989, clustering_time=3.92906666666689e-05, intercompression_time=8.954666666668304e-06, space_samples=[('all-tracing', 7408), ('all-tracing', 7424), ('all-tracing', 11360), ('all-tracing', 11392), ('clustering', 11392), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('final', 3936)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=1.3253333333332687e-05, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=7.079999999997852e-06, vote_time=0.00012819200000002175, clustering_time=3.92906666666689e-05, intercompression_time=0.0, space_samples=[('all-tracing', 10864), ('all-tracing', 10880), ('all-tracing', 16544), ('all-tracing', 16576), ('clustering', 16576), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('final', 5664)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=9, effective_calls=9, state_counts=Counter({'all-tracing': 5, 'lead': 3, 'clustering': 1}), reclusterings=2, signature_time=4.920000000000271e-06, vote_time=0.00013011200000001989, clustering_time=3.92906666666689e-05, intercompression_time=8.954666666668304e-06, space_samples=[('all-tracing', 7408), ('all-tracing', 7424), ('all-tracing', 11360), ('all-tracing', 11392), ('clustering', 11392), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('final', 3936)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': '5e0aebd2522c9ad5d2cae0062cf46c8b',
        'leads': [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24],
        'failed_ranks': [],
        'auto_markers': [(9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True), (9, True)],
        'trace': (
            'c-rk<+m7705q+PpXdticS@EVz5Are2#t0Tz>;~f`FWKbVBXze#vc$_NO5{uc+v9~j_EJ2jSY1~Y|'
            'MdOmufKl%$NSfxzg_+%F2DW#{r8{0|5=*L@9)3-?U&#F++D?0Ue#4!&9%P{*YP@C#r#ci74j<7Rp'
            '_fQSJ7X^a24ZKOjp@m<^2E1t5jF1Uw-}l_rG8C<=-!t%eQ}BzJL4eub1!LMO<Dl<~INQsryOHKlS'
            '|Q?xO!|WcS)F|6P8~e-_Ih#qxF0f6Tw{I?)fqAcdJ8KgK`wtC+Ov)cOr$zJ2M;`fc4ke+>8Uis`1'
            '^orwER#BKhW*@<5MsF$zDPV6s#MTuh*3pO!-)xoB4Y|Boxn7`84G>%O!*yQ{b!8Q!Xz!@CevK1}o'
            'uQa$G2d5TrYW}JOZot7UThVI%ih+Co_Vc{#IIl>dJyu-Sn}5!~8<yV=%U61>X<m!&jjkosU2)a@S'
            '9&?oA$wa+=pg2=2<1j)C||!l^_p=0+=hT)-E~%p<yQulL|`pvbCB~_1Xiz0PttQ23PN?)Rwb8T8B'
            '`iUwH(Sp&0n=p83@%wO&2|lYRA`Ke|`V<*MH8&@4I+>0IUnSpZ9jv2OOo0(OQY;=G7nLs~X3?8&>'
            '@n_iaDFJ3g_9$H9}qhY#Mv$N72Ve@E}h^U2%J@J!fb<h)#ehZFm&n|c%KCSLwStnib?<wN0%xT)J'
            '0pGWQSh#J1ts88P6&?QE_{PXjPY{HO%W>4bCs+sf$Fxg?iK$E9&U^#n!6qvw(WzC&$%K>0HTYeDO'
            '!|+bz^HMVn@ADi!4&t7sFtD8k-s_n;sAnC5j+pK!I>kb_GsNeklL$Iu!K3Ij3*F8jS8#YV0*{#TC'
            '_KZ0x3kP=!VBAUow4b4o<DfcZ(`Qvg87TN>Dw1yveP|SpL{2YnBu74_w*G;`uQAMl<P4F?VUlpWV'
            '>v@le&RJ9kKOM>Lw0#OqT?wuC`|~a;PKTM2x!C-NC41Iz2dbwSAw7Lmlx~qSOfvbxgMkr>=>2MYa'
            '>hh&oy7@u{?zM;s+x`b1BJI(|f)DdxEe7>q^GnNxz#VlKsVm_=2<A~)ZIu?RYiO7dCEWt0xHs0&!'
            '+=9e%QLEls<K8v{w)&cjBI?N0jixXOQ(T{Y2?JmNOupF$ntJL5+!r{Nd@>?A>f%l5mA&<59j_11G'
            'M-{K6mj{jQCXdngR}tEn-YQ62qq-PKTNb15t0J^9JynplYHq4uaRX_~V)Xq~gf^y^3ewi9m<RI4D'
            '(LmZOzuhJ74_sTCj`i^q+Tl#Zd?@kl;!cXSBEl}b#=YMAwnJCOj1`BrY@fkJx-lOsmuDeUUd?o4)'
            '7qUe+pBVPqrQ|SZb8HtWWDzKoRBur;)m(Fmw4lZaH&dPj=l4!;d{@3&U;;O`O;@n=5E?=+TU2`>>'
            'uJSckH^h8khyA?$3g@U$TQh>voo2T!T+{h<!_nq@8%DKqO_CQ@z|x>%$+SO2K<rH;xJ_5Q~rGG(U'
            '2%Vf$;j~C0dRqJ1|OwrI}IwDhMp1w?`+`N6UOsnPb{TQiOq^zik(13Bx3#5jdC^#~3Xl08O<Z$AY'
            'Ws4TaQ=D7;M-DgV+_9?|MY83EdS$|egFjn4DHm?Vc3B#s9uO|OxKbosUNBlFTsS<nC7p8N=1M%rg'
            '{w~xF1zMaBwSv+TqayNg0_{Wa^W_tJRJ~jaV0ALkPnRL<C_Y{_(s@3zSn*4#Q5RA!eac6I-2JGs+'
            'D2J^d#KwJhie*Htfpw<Llm2!uW=`@iazXHhw0dElgjdsuj#0Gjhe)%SNgsh=kc|RJ?-OW5$RWd)b'
            '(fgljN+t!h{>eY|+AyXDE_#a}%!^kH!n#9KtraSCe2SAN6;vB!&WF!~B28l1lRFZ@XceY_X~qpu)'
            'l!0D_0VxeZR$8*v#_6nSGoV|K4FowNiyOj_0g6$^SR<<T;JEcBU#ge<1$RziTMpCHB?yz!m{aVb)'
            'Bjc7UvdC)pzIP}xZqh!BEbB9wb6#o8Lj$w;PSTfvlNxeB$ZN}{@U>-{-K7AfF3sfb@}CgSc75X@Q'
            'rs_+Jf!V<yFsM53!`{Qa|ZY@Qo}@AobZy&7Z1ykg{``5{^FtNcOSjac|ga^`mRMZxGdU^vNccpJy'
            'gz`xqQ^=V+%Ha10;~y3W5>{Hh(BSfn?=c?;xW5G21Rs{=h~H!{?8zT<b+dls{&R1Ii!h4h?+%$jW'
            'E)_w1pjO_>q$N{anNFbS*;-$|r$P3($O&lfB<ORDP(HXHhw95(R+x?-_eQqE?u*|31kq7yG!8y1}'
            '<1!M-D4NJx>I?H`#yXr^2ujp*!^o-cfYks}0SvYXark$~QG25<;>sA}Wxp~<+)$3E&A)ni`-3QyJ'
            ';-2=d4*hr%dz|Q{CkLx{5%!ORAdTqFC|CIk^dPL?o)1F*vWpD-9k2WKc590J!2^<*73=k<MY*JR`'
            'W6ApjdtlSE6K9*B^=&7mKE-i7G%4^T~{#qi_<DzcG1mg2i=B0(H$(b#Qy50-~0`(and23NCi*3=7'
            'JM-!je%%C)8Owk>Q6*0@Vq-Y(gg#UnlIkb#!7pSto2rdyY=5vF{<BNCm{ZmXQ;6!je%%C(Kzok>Q'
            '6*0@Vq-Y(ggtUnlIkb#!7nSto3o;v}6AC+I{f$+2q$I#DMq87J#RDA!}plXs$48iY%OAT)@VU8aY'
            'nXxn+1kATmDaUXlmk$Chmtp}n+P%9_Bo4M%;Cl1k%ToZjFgA-Rl+@wq*Xz(kVo^W-6SZ!YG0i#UO'
            'scaqk4D*DC%b`n@_$Ixb+uYY<=lCZ;E+H1)Lh>xi<t)k<+7@=wVYG>_zDQFHb+Sdt!DS`;f@1QFr'
            'f)KRnMfj&pzYkJD6=1R{;pGMA*!f_738WG-F&=kySg0tAN=Mekia~y625rPPziaaO4#h>Nh+aEP>'
            'FQvGAJgNO1Lsfsf1#wguCmMO2{fIVFg)7CG>eJ;fwbSmC$FZgv~%7Rf*s@X?v1%ARzG*&1c3W$u0'
            '-8E0T6aFY0WWI{!Kg*?njWLKYqP9*yFlYt<i+1qZ(7VmRPh74Ng)z_(Ba4!Aazb$a28>`thu6TX7'
            '@Dpu2dS2ByRq|OZ?tpC1+0wI<ZpCO19%g%mTI190)APhmQSPG7mYP*jv(pI@IDPrzDm$vhrS!?bS'
            'o~&o=opfvWfd#odG;8ZqPC5r#qq<5Snzi%^Xodr=QF=TN&Dwb&w+caX(|Q%4IaWT2%eC@Qevxt&M'
            'CaJ}D(GAjpM=NG6JhYIfv*Ekf$-QdKL*bl_d4)QS;D;|sdm@$2UG3)+yN_3<FcE|(->Bs#t*RLGE'
            ';?l8t=;BK-tPmFjOez+I)kXs>vj3GU+8M>tl7M$VHV0Z)d(tu9q=wGM^qKYq~9V<z(C{Cx7|+{{G'
            '9i_xX_MGq=C(nC@K|GwA;LLkcNpuWxYNOFcdIIDb>vf7i*U*E!s#NBT#t>7Uqbooe$w)wT!qhkDh'
            '$+Ij$mGW{m)<&kRJhcVMr*y3$|s!ZRLt)7qc51VqmPxZtvXZ4tbe1@G`fdT5hRq-x6mA)uDwiV|<'
            'De_UF(ide%!CC*a4mgE_vyN*LoW{Xf53~+AgM+iKYZ6?KgR?$p9dH8<&N{CVaN(P>)u!f~a=Wf#a'
            'xHpOc4#f%olP#cyD2-kH|ysGDHp|zNAAfEgL0kNG$@IHvff=CPznO&I#+2>8UbaUnmV8i1j_YNBA'
            '{ZoWcwfXj`ee0wC65m54~<Kv{_#_SL=JG856AQnBeFo*=l>Lr4coH`%ALbbFGFJJ$gxY5E*FkB#x'
            '|}Igj3w9YhA2JB=f&XUn74WCxLDZC&h|>?pE&hCF;vb_iD9>?ZEXjw9RI-_t*cI|LlD+fi_e1#V}'
            'DPX{LvaKwH`!D$w_ojpDsoJPPAJ01mRSm1Vc`8;s38?w{({Dh}t23>YFEqbVdL)qs#t`V`oF}VgB'
            'IMljYE;v5lLJTN6VufSq6bBvg70yRDqUeYvj-fLgbi`jcAKiqaBi1;EZs4FJKEvtgc0C*sXh1le>'
            'fwk2q~1fNz&H;O2#r%M9C3iPBYy<~1j6K014kTS?JR%+0Rka&s(m94uv$hS+Pv{eO#XT`aNO>jNj'
            '-i@Jt*JqYn#6xgvuIzO+Q`j!#T#^&ku|=A`30b%@R1*U@LFQ=E;K9t-!d;x)y#00^^REhrqe3o{k'
            'tf++`gXKgWS_$INu#+*MC_OdRgAZjqlw!MJ1QQgH6tq*Ta$!XVMiigme&K;kg#xm`5bL&TY4o?CL'
            'kNCY!D)~&-ytmfL$q!NQfZixpY5zG`>*AXYNn)^tTR}2!lB_)hRFe7E%Q=G(VE-FouF-R;fVcA7L'
            'g%|v|S-3$ptD}~0eR8?4+I#16UGKyCRHPTf#kP|N>3gaOZ%jWG<gHZ;49Hs+r0=C7yfJ-LkhfOdH'
            '6U+UkiLhC@W%8{LEc(5?tr|pns<6)BKM^68hGR_Cj>^;()z1JxN%XmDo_HvWnEl97YYyuXG5)z3K'
            'Q3=_z4h~b!+_`D?l8aWwm}OOkAtNDnMM;mGyJC0C8~k*7~9_am|ai>sCI6{~EhTvqd$RCWzvDDNp'
            'hmYL1bIu#>*RQ;PT_KFqfsJSD?7h<e*w4ZBFD%;a;KOu5PEVwtw``-^3YMgrpznKF~&WisU^$%|#'
            '$DkdqGDH^3rM`X%O)|bhYo4hZUX{&gtSf;E9itvDu%?qlAn<zLlCCwrJ>BK2(SGgc(n{({gm5d_E'
            '^1{9{(U!Eu6pOZ5J>`IC+4Yqo(eeV*GSQYa1Qm<6S(WF2XxUYtBGK|f=Q7cjv_ch&wps1zfM|<rQ'
            'Spa-ir9X=9k@X(-%)?kKAYd2y@l1Cr$Tng4-2DvPvPPl;)cx_ePH{yWYgCwVuk5rMyMElV1K!0)7'
            'L6Egy~}jgBX2a1AEV=uT>ld)5nXux?7$+UYykvvmO>lL0m-y9jBmr<9)~Aju**b<P}6NIC-_3`Xz'
            '%rUaWwTR}dTE<kfy*Kr_hWdE*#)1>QGKUgMV$>`p$%ONhEj*=pLo>ZK2rsO0X|aLJuiK#DNg9oFu'
            'j-|nx@LgUsVve2rxw|6KsZc082t#<dhe_2cl8knPZGP(qu)R5QV&m-x^fj^KWeE%^)D0OM3c9-9T'
            'fHuozf<SS1Nb-O-%j|(bao0uhfHuo>fk2CMTJrPE6j%pawlM1b?!(tU{eWrTb%O?%Mf**>8)BU!V'
            'AuS(;RPUp%vKMSK(M((@d<1;9|0tg*;j!Q2zF8!K7q|fFn|Oyn;1|6L6>OY6WD0V1MS0%uvb#fCz'
            '45kZCAjja!qWCQ?eH<GD`~R3^LofnH)0lBDrFbSyHlQklD_a<&cS&r45VBk|HsK%y#ZFhs<)P*{<'
            '5gb(Xmi*K+fjoeQS#yBM{Ssv94(wYNKtre1Hu&F6n2OlRkAFQc`^n;dT<J?UCLpS&A!Z@p$o0{CG'
            'X10&zZX-a(eek)#b&UI`fj%@aW_LFn2qtL8BTLYTHp;<pQ2~FeBtfyH6n!%x^ZbeVdxQ;@zK41-K'
            '0}jplb`fad3D<Jda(j8a<2ohRq7$w|Yvu0KO-;BC?#+54=Mo+na2>{!z7RDv;5vxOIs{cPDF{>g@'
            '{rVg>mVj;m#bhh5GL0QM=-_4Tl=5!#PX4g&CFyX7{lL{%hNIYs}uHDjKd_Sel@&lODx7-Ow)F~tq'
            '@OJ+^@DcI`Ud>8?n@)_HRG(T0YlmX4<0zuY<Ti<0o-kwd{Iy+;tEaX!$gbtCmrZ4!aKG%9_2{u<I'
            'zUS{6M#>N*4}Z+{b`uH(3TLtH_{Is}_*zf;&03!86{D`1ldHrI})uxS=H-!NCerV(teJx^gXENs4'
            'kJ`-DP%yrbRpY(9dtjkzjZC*z`tohhZ3b|cW6|n2`HfBd;yRlvmX1%{kJnjz5Oum+OFOJvb8sdbc'
            '1Cy`ix>_<^u3#(%6q{>|6WA07o9i-Ez&4`TT!WmzW;obfx1j>I3B~3b<pj2YgUxjv&d0W!cpU)-g'
            'vY6g*HL($6HzTt&f^0@<<!9IIKIk>00rU$!sgVx>o~s3NdW`m148K3xa&B+S_y*awCm4d`PZp~Ve'
            '{X=cDmmTy%MtDUsO2^{c{Gkex1L&jm9?Xt(GbCujwbP-4DkFh|a%`FUn0BIKwWbw`AkYL16lIg1M'
            '}N5uJXWV2+uTz?rL@n;1FFW!;zP?CS(`%(Ms2T;=S?#9=P$97QKzCzxX<R&eH8<X6aU!Vu9kOK|R'
            'W8e}!+D>3#uM?1F;gK-F^bAn^9GaS}(@Dfw6a~yK(J{X5!+9){nI>TWtCo(bgI>#Zm&V+FYrl*2K'
            'uQMFha#RyDuX7w0*R|}TpTQS?%rA@=xU`bvw7sFRw2#E=TUrUx?>bF}aCNJrCUD(Jxx3nXr*vKKg'
            'Bn<*7uCf!lZO}`fE{Ix>8gUPwdsukS<6C<j=zqw#&lCb*4nh)fUIR9Mu%TVS!24WAZu+pdO+4#T|'
            'GT9lzYl}ojvlF69FTA8616`7DS_hB|ux&%Z*IFj`IemMT3*C)4Vk*h6220J=@6O>o{+4x-~fXI?Y'
            '?7LMy;q)|-vYy^iw+r*VUGuhYD>F5<2``3x>>Y;adBy{kI0HEc<v)74!wh^=8u0?A!L(?#*!l_z@'
            '*wamyv*vVhvDM|bhALL*Up333dLtXB`6l{h>nMvp}iE@+D#S(4f{1;0U4F|>}5@jaG%OuK8mKRI3'
            'O<+<iQ8ZMUj!2Z5v@eq=H;G>?(KbO-u|!#66k!3Qnip9OH&Jk6N?Jwyvx!sItb#!fHs{Q-D;h<D<'
            ';8wwk}YYHDVA)jy2=5`vg<5GlI2CGWs)sv4=R>yt7^{y$+D|IMUv&k&t;M=X^bkCY^xg70m&BEq~'
            'Z_x3<3T+nJ`|ZlHDAfo37v5vr=U$*$t*&JGpu@hTp;p48xXWH~fa}z%Xp-E%`yQbnmHOd^_CO86y'
            'wu2$yW~+JvnzdCV{sBM)pj*KG3IM2IkX%!m*p5A130+2pke#$fVz!B=<7Q^yOodSc$g!YBx?h?wI'
            'P)b7Ra7}W8?8H~Gv@CE0ta-Y9saK{T6FzyNh1f09d?+|DPcRZII<F3F3$GL0!euCY|r+7V4f7t7Z'
            ')9zI;eW+X|cW;nO?kI!!OziLu>vq+LCSr$yaVry9V3nKRI}{i<L7xRyw<kR`4Lb}B%-4sfVas*Fr'
            '2BE!_>$~2?C5qlzLwwtZI#*tapHcF<l$_U=mT-$K8)hwY?bx`aTcez<foZCu#OjuzJAy{{V7w%ye'
            'nn<Q<NM4>)!7^iS33C*!W$yXmDAy2_-NbTl#B$)O-VwK4$+1N*~zqq4@MQ8leEv$85Gh=>yv<44='
            'M6QyM_}n4JwMeV}hN@abzZ2!b|gMz|}f@e{cupf;=OQ=umI#Hr&87MCSebq1HsoJ|gwc;#HNxGbq'
            '-Gq`N#&~muMYt@FuWl80j!DTb2nZsqd>ugu8?Lg0a_{-P#_g}uf&(v!>3-o$#IKS$vxjt&u(>+<Y'
            '6|D7Dn5}Gm71LFA*LB<1`Rq;GW}V+X194-9ZLWvW(FvZB0U)!pJ-x(dcOT#Q8YGa7JHnet+~GU?u'
            'eUY532wl7`WyhP5530%TTCE2vIo(HqJs6=D+${U+{fEzU&ifmqkGgw@~|;fQ-3^*P54DnT@haNBc'
            'Ayh)6Jn)uOCNz947AR7Qy(&-}Jg=Z^L%CGb#Q~5t70JafPfm(zUyuChO_{i}>us({4k!`Lu_3yf7'
            '2q-^~A8ENy&9D{P#W)CyTcD;!3uXoWgUE3zbo1rpT?yIxW&K5f{2qE^_*{3NYdWB5Z_VZ-mFR_Gd'
            '9;V@D~E6iD1ktHcCkf>JJ^^#igX|pLOYK2X>oTU}w1g)@Hm84emHMGKE<YcXAlDlFl+jcURvp}fm'
            '+((~uI39gk>(M9@*miimjFh0<h(I2VK9@s|r!#KSDHBjstlvK16n+Nmgzb{qvCe(?V9cT)-{RHY$'
            'L8@52Wk_1A&jxobn1BO<#_5qGu&zC(`NaEEYKg(y+uanGEcJi;p*r4(!Mwmmv2ygk!T{4h-Gb+j6'
            'GR797#TvLlc>?jY1dB*dAAmop?`B40*0%*p%&QilI(W3^!?;Rt&{c3|Ay+#i*WHKUpyxN!C#eeV$'
            '_M#Cw8b=yMgr=HHJi#wWW}<HuDJKdzGaah1f6t0aD0CGq1b30nPTN9NrwCU*^2G$s%G6gltB<u>i'
            'TRj=hUy*Ixk8%lTi9!G^Fu=PJ&2QK5jW&O^bypLt4A{Tict$_=#&M9oLA)fB%NH)#Qu!!DCu~aJL'
            '&)Z%r`8x!&<J>FNJ>Op+lb47NLqCZ1pY~&aZ$Nkx<IOCuu*>_r<;V5j|M?%Fz41{'
        ),
    },
    'chameleon-lu-period-P9': {
        'tracer_stats': [
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013306000000001215, merge_time=0.015516765333333354, merge_comm_time=0.006001965333333348, peak_bytes=7744, bytes_by_state={'all-tracing': 320856, 'clustering': 454712, 'lead': 725032, 'final': 250848})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.00026074000000002843, merge_time=0.008265802666666674, merge_comm_time=0.0015614026666666793, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16608, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013306000000001293, merge_time=0.003621229333333343, merge_comm_time=5.84293333333449e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 11328, 'clustering': 11424, 'lead': 30656, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.00026074000000002843, merge_time=0.004043005333333339, merge_comm_time=5.300533333334363e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16608, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=410, events_skipped=0, record_time=0.000430660000000014, merge_time=1.9141333333334322e-05, merge_comm_time=1.9141333333334322e-05, peak_bytes=14656, bytes_by_state={'all-tracing': 21696, 'clustering': 21792, 'lead': 58304, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.00026074000000002643, merge_time=1.5098666666669633e-05, merge_comm_time=1.5098666666669633e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013306000000001293, merge_time=1.1066666666670333e-05, merge_comm_time=1.1066666666670333e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 11328, 'clustering': 11392, 'lead': 30656, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.00026074000000002643, merge_time=1.5098666666669633e-05, merge_comm_time=1.5098666666669633e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.0001330600000000137, merge_time=1.1066666666670333e-05, merge_comm_time=1.1066666666670333e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 11328, 'clustering': 11392, 'lead': 30656, 'final': 0})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=6.540000000000625e-06, vote_time=0.00012821600000007156, clustering_time=5.151466666668443e-05, intercompression_time=0.01578556533333336, space_samples=[('all-tracing', 3840), ('clustering', 48480), ('lead', 48464), ('lead', 48496), ('lead', 110936), ('all-tracing', 106968), ('clustering', 151576), ('lead', 151544), ('lead', 151576), ('lead', 214016), ('all-tracing', 210048), ('clustering', 254656), ('final', 250848)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=9.41999999999393e-06, vote_time=0.00012557600000007857, clustering_time=5.1072000000023515e-05, intercompression_time=0.008265802666666674, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=6.540000000000625e-06, vote_time=0.00012821600000007156, clustering_time=5.1072000000023515e-05, intercompression_time=0.003621229333333343, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=9.41999999999393e-06, vote_time=0.00012557600000007857, clustering_time=5.1072000000023515e-05, intercompression_time=0.004043005333333339, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=1.2299999999997209e-05, vote_time=0.00012293600000007517, clustering_time=5.1072000000023515e-05, intercompression_time=1.9141333333334322e-05, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('clustering', 7264), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('clustering', 7264), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=9.41999999999393e-06, vote_time=0.00012557600000007857, clustering_time=5.1072000000023515e-05, intercompression_time=1.5098666666669633e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5520), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=6.540000000000625e-06, vote_time=0.00012821600000007156, clustering_time=5.1072000000023515e-05, intercompression_time=1.1066666666670333e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3792), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3792), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=9.41999999999393e-06, vote_time=0.00012557600000007857, clustering_time=5.1072000000023515e-05, intercompression_time=1.5098666666669633e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5520), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=4, signature_time=6.540000000000625e-06, vote_time=0.00012821600000007156, clustering_time=5.151466666668443e-05, intercompression_time=1.1066666666670333e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3792), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3792), ('final', 0)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': 'b91cf385cdd96769292552a4775d0a66',
        'leads': [0, 1, 2, 3, 4, 5, 6, 7, 8],
        'failed_ranks': [],
        'trace': (
            'c-rk<+m72f5`Fhq7}!_G!#gPl^D&uBV-X;jS#);iWwZ0`D_Iwc6h#&#N><zDbZ+j3%u_6>il@j^|'
            'M>Cs%l9w;e*g0I?fe%#|M9Q)KfnI?wL1U#{_UUN{`i$#=!ISQMO@@XUG&AAzW@2>zs~IZ-_!a0_S'
            'gBx+aJH5e~>dhU(ftj|N4deLhE0w{y#ahzl|VQ()`){uK!P)|I+5`%zoDYCWLW8q%!?W>Go|(l_W'
            ';kSO2z_!oJP;PeyNSJQjK%3%%995@WglS2SPkSnO~2iVTj9Ht1;mWzlg$Ejk@W$N3y+A03CIYsMm'
            'I{S`+i;OJO`uK9Z_bP|rP8H;HCj-yj>bi6^w>#wcQX*jxOEP~fxbLigRzSfsD^%Z?=?G>Br)xYY0'
            '>E@rh`HEkws;}jb&A%4q_uH4>f5$IJ31n=Ik7`<f&DdP29Gmm;)1Vs$1;M)Cx12V=6R;QrR^yzy`'
            'Fk^190cor!}9yT60igWR^yeL*I%2#k|0>^o!Z>0v-iiB@893we*aG$)PB(R8PH#7{M5HsZAU1SBA'
            'n~~B}Ejb_qH)V84G>Bc0S)UclzJP|8NJw|GX&MS*N+(KQ-q0<l2Wh_Hn{m?by5;UZ#@l?Gw3=fA('
            '89`kC?@4aIlq_y+^VclRkOvYw)J>LV4*3c&Ek;LtV<?kzM%V9<cEPr#uiBRk8wv#TjI3WJsmd~R3'
            '=K-(~^kAtxE9-S;R2zTDty5rPPVQ7<R9C|2app$ZXyAcRHFOJW`<5}<~QF#M+3<A%K=d<uc7Q9Jx'
            '-XNd~2s|&Y&%%>g@Fr2Z<m`pxJ4?j(a^?-kceX0Nvj)hgCJX!IPM31?pK*vS6W{wavvv|M1z0n05'
            'Ck>M3SKmxb6O6E=4A{UKr=9CUNoMACgIS$jA4WLUcsPw(RdD;hC}l*hVrx4E{wIeCQ<nd<IW-5WO'
            '{0=5IR3^*dPE>5In#Fxr0Y@;BCMD=OB21g>nav<-kkv0PAN@g5Uub%pE+Q124q~6p!!f!SP)ciSN'
            'vRM#@-xXNC+fMuZy0_wcuz`0g?X!e4#KdFCMEB|RNroU~Fdq612$3n`-}(*>7ZNLebAT>w~Wdv?L'
            'VES1bYT(Tl%sZ6p0V5tqu5N<M)vQ#peak-C_r82n>fTecgKFlp<CMfq|6C=;=a_7Xzr((Q$lQ1eK'
            'Q5Z?s3`nThYztzu4YMtu-vQYyx9XCx8IYy1DICOR8<ui>(g<X;+>%bhW<cu4=7kWOZCEGrnJAFW7'
            'T1g9gY!*Uq+Ue)xI<(0qILPEn;;6u`REP_qMY3i!kje{U9=y>%@I>}&CC%2#!BXh%ZqC+TLv&z5}'
            'lhSri_)DCIXDL+in$rv6ATAOfhAw%uEqrtW>6Gcvd<!yY~fPtE{~*!V7P7#oiZoiy1wG;<KrvH<5'
            'H<6>mKaMj+NoCY=stm@*fbGPGGE$XxqX1rz2<=9>-$nKBocg0u-E$XxqX858D8rkW0=nKBoc(zLl'
            'E$Xw~FWuYw3W|=fA%dBY5$7_{LGHDS~llokVh>@C-*-Vlc!beGF_*)TDll#F^tRgkF<HcfUQq#>@'
            'rE?RA6*+59lcuIAlO|2sJ~IUd*nYPi)&Sc>Q(yzLeJ1gmvVCSo4Y2)g88yK6(2Tl***=rXP1!y(K'
            '?m4=x83Og+h=9y`W7>MUWP7jG&+e3itwIeh$UR}dOmAdFnEq7ig3+|DacFvQ**FjrvPLQQrz`=zM'
            'p5!K`wWln1j5vL~0HeY-fPX!H!%wXby6@@WdSCEl^T(uwc&xWDYjmbK$R-Ky$E|TNe-J)<uzJ5Ap'
            'K~zTI99cb%dfXXZPsQ|8ZF3g=$n1=cAky8?HAGPto)3yZA#O6b{j1;AFB>xz`EfZIt0+*Z3S1OUd'
            '$TnMC$1>B&j;KoX3?#uVyx|ut`SXr67y2UJ&m$?fsTJrUoyEl{kG23Se#8i11cFI-@GHi&gHq5Y{'
            'OgLeyyi7P{s|A@b#8%rM@D&hS<z=iXTP?^~A-39mmoR@UpU#UUmeP+?X1hZ`E}yP_Zp&oy>24;M0'
            '+J+j*B(vjx#|?I%&aSgYx`ZQ1coa!K}zA;d{1f5v8HeVIaZr6c*qPWVJIgF;8T4bKC_hS^J6^(=8'
            'kL{2qrwGVL322Jb&X8Rv?)0Y=q~)+;P7p2<Bo=$UK-6GDSkS@SmW1uk$_1e`M-KrSP8CF;2p$A9@'
            '@(Wz@{Vb;?q}!Zn9mDtWqi^$}bHvs7l8Ib|tenOVXul{~Cm>U>YiQkg~Jl%;?Pi-ucjr?b!IMx$n'
            '0K;C$!*AFhcdQ+!YmR%{xYzufCh}m{L<pVMsyi&?RW?Mk%K+LvdaT8=VcyUvL%(j5tftYQ_+!JKB'
            '#kr?`aPFxW=AP>nSUERT8rHrj>G?2L)j4PXBK^9Tm`e7`VO8DBT=a9j$fX}fgLSn>9$JHSHM&D<u'
            '&zdj8mze*to7}lVROk)f)yoL%So{E9J;lB`*;eh@=7bw*I*ib^S4h#Hsp?~WM7w2M6>(b{8}-g`?'
            'r~De^xh?PqmpO>w2F#tR(AdXvdXgT@UTBlB}zt9a@sL)M3tpO0uqphmx$1lVmM^xbZn8S#u=Y#Fc'
            '1Tr!n`JREoy}KD!!1P4~l!NNGkP-+UAmxAn2;RaD&8Tk2I*+}2y_RaD#xrAtRtaVuEjK@~StaYGe'
            '1RB?L+6*qmQe8f2!7E3|p)u<8Yq@~S38QDzNZMFBjlCE2^lGQ8dx)rN{y@IY=v4R>3yP>e#=E82J'
            'xJ49pLt(eW3A>d~Joi_26IaSAGH{<%CAd#niGlkhMy0vW<B7c$OJq^(?QwZAioHE9%|@}e$7Ss(_'
            'J(3_A5iSAAjOShZz%TmVa47GQt&ADR#xmyUa1(?Jf;#%#`k?1ZDl$*mm<CMvw#3xv9-%92*4FvY`'
            'lU3T(Q-`D=5GfOXpDmZqIc7)fC{?p9DeyI23@}fp_N*&NlZ~fD>23v{iZ2I?lUmX$Dm|t}318-47'
            '-TSM12r!9?MTomV=TC|t3_N{1AMTYgCKBWc1FB;Agz30IKULQS~cHQ`p|s7H~6+x+~{@l@i9ogaF'
            '7mAGQ(hn`*~uGsmZr&ozvZ7EcVLzOsGi9?mR#VT<tvNjZn3umK~6!d!Q$f=9C$cw(1vm7oU#~G;n'
            'sjgg%*d!9lK(!$%`nJBw(<Jrm2SG2a8OB)*Ll9%TiaM{AyrTV8rK0T^I$h+@2iCAZ*B{DGlR|0xq'
            '2$th=pFr8c|M`W_`5mNl<Hw~s^STya7QeU(YunWI!$tAJCu4LHD-4ho(<ed6(MWZzJC3s@%Qd-zG'
            'TpH!9>2j8oj$3^@c~s*Q1%9J@4@JG)dzVzG}008Tq)`Z{5Ua_hb8XKkA(}GY`&;TW$uqoQ2W3oT@'
            '4!$>4MOrW|=3hk9HBmv5nz$HkUJ!39ym<Lvde@i+tWIJ+7u<8l46De7@{g%j~Ok>ha|#s(fIp&pm'
            'O<y$D_aj~UkaABG7ID5TqJgx$HoLyBG@;D0cIJ;7ec$~`dI18hw#|4(uc2?VY?P1X|Eb76cr^$la'
            'ao>xs=fVXg$JZ+}H|=JNer8;Y_Au0VrK>y`Bb&5q@$t2K7-Q!eFH)s<F?kACUB(7B3k+<R_3h}!j'
            '_;dzgjMGIO`zgJ8>6%FaO|?a9ge*r{0Ek6u2=)0`6*|g@2S1NYa}`6cA2ggxtjD-9UAfv=PBT>#b'
            'e3N$b!y8x_w0FQX?T^Wd5dhM;UWFn&EcV+@0G=!=zySi|YL6l{^I~k+jQA=3u?cF__C)ildOrae&'
            'K>d5oCL@l2PC(@G&yDduwHQN~=3Ww@L*_a-hU;4U|rgY_;aU@m9rp|vg-ltr{t$^r?WO9z$A`C=7'
            '8?pGC5v?55k87hK|i^TRGA=pq7q>6<~g6`5^JG7vBXbmrA8Q{)u4u`f|(JciHxKCTcq3u>BOF;wf'
            's@8C5JC(Jx$C#`2Wi8KE>M{G4DG1(z@)HE!hUF(GqNm_3C=)^8ZNEKOg5WJE=Rn}?zN1$?xbC8s*'
            'In-R94D2^O)71mr@1AT*~$w&1tYv2g?b>lpE8Jz@39mc4r?a{IR(qc_6RHqhqV(;nSy2GI)GaP!1'
            'Ac1(y(kyk6{|ebP%KESt*2U6wx<9Hj3vlXxXd@1e%TJ+d$(WXxXcC2s9hXw}B>ue68~M+Ho8Y^0m'
            '{|K8PNPr$3?1BQbhpvW}ja03M=8)SV!imJp`oK*^$&WeR$JWS*)COv4K5f2KW>rARu9RO7&04fd|'
            '?pONQ`L0;Spy!dZl-rv8yz1I^YqT?Bc;0|Uq+0|*j0aM_DeP$KAVBw~Ry3(33(z9%#Z5*`)+aEPT'
            '8!G$59;|D5Xt3oWwmig^htJsZuo$_5JrA+x;Vbq$yr(8jQ(@9qEi~!a4Mn<_5~knMS^q5Ilnylut'
            '~>d8g*^|k=OOky#GZ%P^ALL;V$Z{UdmiTOP+(Uhm>6Px9l>pdViNJ`RcbbzSr+xuy02R>+?#-V6L'
            '4<=?oGhG3Ai@__a>Cyn^3C5F}qe$_wid(!AvyT*Vu<@ji`k2qCGY@#^%P@+!&i1V{>C{Zj8;1vAH'
            'oeH^%11vF66jKm{dLonrR6CX3XT1gR7!LvMw?v$4j`#@N{yI~!wXW9)2<osF@xF?Ke_&c@i;IMUg'
            ';HnJ^RY9fq?a-N3pVLOu`L}F)S>}-skjj^*ab~eV&#@N{yI~!wXW9)2<osF@x@dxZ|+zgZvrnwsS'
            'a8^1(z%xRH()Msi{A>qyHO8*S*wq-j8e>;u>}tGASL0&TJGM2(w#L}jxM*ABvd4<BqcL_g#*W6=('
            'HJ`#V@KnU)6uwm9N)jC@s<aMu$wV<GsbSl*v%Nb8DlqN>}HJJj33|4xMU`Z?Tka2=xX^_!j0yf%J'
            'x-7^<N2-hB8gtm!Pr}fMqBEivqAH0E+^!C;*EBuqXiQL^XM(6*C>N!%4*=d=J0Y@t5@{dFu%pot3'
            'Ci02T#cQ2-VNU{L@T1z=GCc3%P597#BFC7M*ceJK*F@35;OwEIae1*ax`I1*LiP!$eU;ZPM0RpC$'
            '-4pre$6%JM5P!-P2`t-HF8Fin4N)^jM<<%(Gr=YSYr|zfH2+G2tEF8+hp)4HA!l5i2%EF;69LmC>'
            'ES!k(o|IMnX7!2-DdNnhtoq|@Mpas%EF8+hp)4HA!l5i2%EF;69LmC>EF8+hp)4HA!hJwlIC-U_-'
            '|<N}F*Lg6)9Bj7{gzM8(_21K7Y=pdP!|q$;ZPS2b>UDK4t3#B7w(01;l!0NEe7#nK~$7=*HZVoa2'
            '2VTO0(`L4u|4!C=Q3>a3~Ik;&3Pqx2-tb#z%)x9}e~5P#+HU;ZPqA_2Ez-4)x(sAMP3T;U*dA_12'
            'M77jcmneKBV_TtJQ!Q2A3``KWTq;*EWS@9LX8O%l(31oXn1F`UKl`C@ETQD?Q1SG@oZWtHk%XU#R'
            '$y0Oo9HRMT=wEakOX+H7}{H#28P-E!bbZJTlGEHeF<CEx1<kfSiPLnj*j-(z(4cHxpX8?CPMaY!3'
            'mtTKrJiWV-FBybfFo$oiM(<8Wz2VXE^=PI~&$~K3O)~g|m)ZnAHYu~;x{1&3$M%_i)HQ8V9-JAs('
            'hTxA3#0QmRaHa|65k7+8Y7S6P>)OC@-39|xY%kaxE4xyoW0&Q9%n!vXBR?cJg#3cMLo_gZXzBhay'
            '-t$*udi?)Z-Gkd<&&KF1D%+t|=29XRo)7$5kMYvkS^X9!CKlXBUYPk5f4wXJHiexWH=K&T2caJuE'
            'tgMLk&bG+9eK?t9VoT)3d*_<CjLrrl@J&x~u)9)=n(a+L>TWRrFoKE75DW9(ex^{MnOCQspd%h<q'
            'Xfr0Icz8&4z@qH7Iu*!VD3DjC>V{|qij$P5W!?8Dn|G;w1B_cWg{FJlL_oUw6Fp`{eyFyosTuu6^'
            '4h{K-^AvEG;jv_AWI^X4-9DmoS&<MYGJjLMql~#7&2T$w?#}I`VN$UEMRor3N}d92NZRElbFkj!7'
            '|i7?yHUvHIKbt`6h_SDc&5w68Kn@P6mz-pC}S?iGF;A@dlQ!vaF?6R!FrbyFqgB;&{~%ZN+H@QWr'
            '2jxC4x%ke6dm>_X`RtS_&M>dt5OZKTN9y?*(6^RJPsYxEAOx{I$aes)rWuQg#7u`Q~tFyH(p#(10'
            '7XB^=sr<*^hr;C5;ahqhBaOM6tgT3^rdY^5HvVVQ#9EvP#|;BCLhn1kRgs1HHlZNDv8g5WKv<3Ql'
            ';zLQryxZa|c*IVxP9H*4ZO(|`dr+KxNxrz%t1;e`?f_fmYpR$Gx?y>9|4r?d!I0efF_6RHqhqV(!'
            'nSy15I)GLK!17q6(y(kmk6{`IbP$>4St*2U6wWt6HVWo3XxW4b1ey)y+d$(WXxR&M2s9hUw}B>uR'
            'IT!;+HnvMQnk~CK8P8K=RTn=BQa)VvV@+Q03KpS)SVldRu87UK*@TQB?)?JWS*r7Ov4J+f2JFfWk'
            '))TRO7&04fd|?pONQ`K}y^Vl=yF7-rv8yz1I^YqT?Bc;0|Uq+0|*j-%{X$eOeW}VBsc*ra8I6NXM'
            '^f7TCa{WqZeKqots-JK$02uEnAGFf9%%8N5fdnR)jE^*3A#?ZC|q*FwY2hMAoWmmB=JZ4FmrI$%%'
            '3)tHXd(6FLWh?94Z*Us>sh8QXh>CO@BIyG~ti8{Vky5G22|1jZ{vVKox#XEU<wNXFA)&6qOW`=8V'
            '9kr9;YFr0xW4IRAfqNLPzQqpQz;HFT19vZ6jqSj#3zuUn(6_M6hnH?zn6ur0U5#L(kLX-h0T~e+*'
            'XdPi*6WC9HE7ncO?Dcrjt~dkX0RI9LH8J}#&ysQ25WI0cy~de#qc4w78F_(A97zop~dkbHx-nQ=<'
            '1OXUG3h6m|ZKW`w&e?MNK@S*U0-Ki{^@XA^q4rh)ZP%Pu_sIRKoG(-G@u%FHhcjxD3H@yuQP0D={'
            'zEba=JFUajNsYJ<I6yW!OaJ7TZl(kbTtjfR_X3Q8(M`h=1z8LI^eQYlXR9jv74N<n&~PQz>6=5^W'
            '(m)bM({5^(CZ9#ed2E(Oxv|xAPhgIlaqP1|Lir-806)sdke2J#QrTI(x$mDYWcEYuJhZ>_MRMR+p'
            'X$T+o7zsi7$7?5CDqF=~!VgM*v61kDa%t=${GikvTL?dlTgLvui~0wb<EpWF@S^6y<+yL`9K5J=a'
            '5*mhKy8CdFL(Cu8QhGM)himVhBXh1o~vMl3Z;iNk4&7aSlu+Z)bix{I|i3pPdtCS;8F{K=kFC<Dr'
            '3h+!F%tFeU&c3g=qBWZxLLGLx2AMz@-Uv{>Y4S|IWZgkMtb4Cvd3)zlUlFT<Wy%p}GN=I_i7CR=~'
            '>-_J5p4z~#8J<8}cqM^7EM1#meA=s^8{OULW|oBwWkVCQI^e@h+MdGfZur4H;odC%Wc2X>yk;cuD'
            'q%ZKdtTduD9I<0=orE{;-=eJyX_&QB~%cYwK>hN1S-2}Jy{Xd(ZwlV'
        ),
    },
    'chameleon-lu-period-P25': {
        'tracer_stats': [
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.0001330600000000017, merge_time=0.015539480000000033, merge_comm_time=0.006024680000000032, peak_bytes=7744, bytes_by_state={'all-tracing': 338728, 'clustering': 480968, 'lead': 765912, 'final': 265600})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607400000000323, merge_time=0.008283080000000019, merge_comm_time=0.0015786800000000237, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16608, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000001436, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000001433, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013306000000000155, merge_time=0.0036262933333333475, merge_comm_time=6.349333333334917e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 11328, 'clustering': 11424, 'lead': 30656, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607400000000323, merge_time=0.0040512613333333405, merge_comm_time=6.126133333334482e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16608, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=410, events_skipped=0, record_time=0.00043066000000001683, merge_time=2.2122666666665736e-05, merge_comm_time=2.2122666666665736e-05, peak_bytes=14656, bytes_by_state={'all-tracing': 21696, 'clustering': 21792, 'lead': 58304, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.00023052000000000527, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.00023052000000000513, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607400000000325, merge_time=1.651200000000021e-05, merge_comm_time=1.651200000000021e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16608, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000001436, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.00023052000000000527, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.00023052000000000535, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.0002305200000000067, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000000875, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000001433, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.00023052000000000513, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.0002305200000000067, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=204, events_skipped=206, record_time=0.0002305200000000132, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14304, bytes_by_state={'all-tracing': 21696, 'clustering': 21760, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000000755, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013306000000000155, merge_time=1.1498666666664992e-05, merge_comm_time=1.1498666666664992e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 11328, 'clustering': 11424, 'lead': 30656, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607400000000327, merge_time=1.651200000000021e-05, merge_comm_time=1.651200000000021e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 16512, 'clustering': 16608, 'lead': 44480, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000000896, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=156, events_skipped=158, record_time=0.00013884000000000712, merge_time=0.0, merge_comm_time=0.0, peak_bytes=10848, bytes_by_state={'all-tracing': 16512, 'clustering': 16576, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.0001330600000000003, merge_time=1.1498666666664992e-05, merge_comm_time=1.1498666666664992e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 11328, 'clustering': 11424, 'lead': 30656, 'final': 0})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=6.539999999999975e-06, vote_time=0.00017890400000004827, clustering_time=5.8936000000012895e-05, intercompression_time=0.015808280000000032, space_samples=[('all-tracing', 3840), ('clustering', 51232), ('lead', 51216), ('lead', 51248), ('lead', 116872), ('all-tracing', 112904), ('clustering', 160328), ('lead', 160296), ('lead', 160328), ('lead', 225952), ('all-tracing', 221984), ('clustering', 269408), ('final', 265600)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.008283080000000019, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=6.539999999999975e-06, vote_time=0.00017890400000004827, clustering_time=5.8936000000012895e-05, intercompression_time=0.0036262933333333475, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.0040512613333333405, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8936000000012895e-05, intercompression_time=2.2122666666665736e-05, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('clustering', 7264), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('clustering', 7264), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8416000000015116e-05, intercompression_time=1.651200000000021e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8416000000015116e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8416000000015116e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8416000000015116e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8416000000015116e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8416000000015116e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8416000000015116e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=1.2300000000002413e-05, vote_time=0.0001736240000000458, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 7232), ('clustering', 7248), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=6.539999999999975e-06, vote_time=0.00017890400000004827, clustering_time=5.8936000000012895e-05, intercompression_time=1.1498666666664992e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=1.651200000000021e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=9.419999999995448e-06, vote_time=0.00017626400000005267, clustering_time=5.8936000000012895e-05, intercompression_time=0.0, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 5504), ('clustering', 5520), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 3, 'clustering': 3}), reclusterings=3, signature_time=6.539999999999975e-06, vote_time=0.00017890400000004827, clustering_time=5.8936000000012895e-05, intercompression_time=1.1498666666664992e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('final', 0)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': '6251f0eebae16e896fc98c3a68e5409c',
        'leads': [0, 1, 4, 5, 6, 9, 20, 21, 24],
        'failed_ranks': [],
        'trace': (
            'c-rk<+m7Qnl6}vwNMK*xZr({{VLqm&r?6<C(LKnXotN#MZ(rG#M3JJX2r5V`A!lVxS2=4e#tDWQH'
            '=g*fKY#iD+xLHce*fji`@i}7@BjS#<Cj1GCiMFspTGY1ufP9|UHC;@<V9Wd#a!&gUAhbJU*s1qE?'
            'i!?x^R8r=ECiTy9@6wf?Y)a{}C4<FG9Wj_QxOpd>8Nk`}Y3+<KORp{`mbL?|-s){(gPeAN{YN+0V'
            'THCHlX!ckv%B*p=P>_x8L0JHP#v-@f0)U+$_pVVGl&FW&w5iRr)8m3K-q#l|l+yevBBU*_)dGVea'
            'bd@20C6#miw+E|LZ{Z-w*`=#`M_P@h-6ma4AO*r0v--VOTdEuDL3m3j@ld?&;Y`2vt-hbz1Q*hbD'
            'O}5*A6SA4P5V9M;5Ta?gXt#x^+kf+-8MtWjCYtQOtB7XdqTLpvWdFS;+UJj7`nPrcJH~=N-tqQ+{'
            'jdH{_V!16`_8{t*S}Z1w)nlcyj!ij|IWW1XOOkscBke2w+Gw~z&eov+-aTEgNZ)`hE;HoRCjZg{P'
            'uf8Dglw|wlVGPze}k)36N@a9}SC;AffJdD(`>V5K2LWx@}1-`|nCZX^>D43%!}>s%d=x?YGY#|M;'
            'K&*!z<|Y=3;C`3Jp!*W3TQKSqqTR&YHnJ{HpQ`?{l#1^(D~BKdS1Jl*vVbpLVjqXPl{FFI8RY;Jb'
            '`6aSDOKZWS10G;3*>$kK&TNvjzYclueto-DIf8+9lr%v-O*cod3G^hLI902HG000j=0hcRxkf$XO'
            '2)P7<$pt*=6kM*{Ax<C{hsm{h%!Ma7K(5>gzF)4#dD}%FlnQy?4x8|?3zsOR<q8kpSTvP86oEFzA'
            'i~WL?3{2CC0uy^R&fLbM7sIGos&+Xqzez?D$*&4bn_EDC!Iz~7oNzp(xs1bwSJV>d%O)EUw)R0n;'
            'bvs53WCc3biF7UuS-#Qk>>vKrBKZOKgV3^yj&-P!Q(lZ)VR*jBIl+p~Bhcpt8-+;EZe<Bir0ls32'
            'Phm2G|wXJoS&+2-B?y=;&8SHuB`D2RZEJ^65-6L2NP3;c!}=Q{@q2ndD;0Xa^<>cPGQN(hLI2MGm'
            'E!c5>#BcTRL2ndr02_;U#OctQZSufag4|~B#PJ0!9UUv8VdY3!##gtyTiDB*R$WQ+$IP=5Ifr|sN'
            ')bpWv@G&jGRp4*>w?t(J2u>x70eRD-2vZI)<dBI6IC7Qq4-SLeroR#<HDJggQyXyPDrY!4404;^P'
            '?$D>A%{$!z>#Z_Ly1<C77?0C@t#(sj&&jHd0TOICsJk(cWiM51|l$J<GndJhzXC56hv77BDR(T0}'
            '+@R@(v>$#ClF+oUKBjh%Fw$Py}Y6yi*ECv7TcZXT=aG7FVnMn?BL^^^4eFx?=H>c5gn(m9O@>zoD'
            'mUg3UQTn!ruvh)=UA{}u#qYm3=-#zQ|90x;4`1)|od*98dMri`JJ3V{vjq5@&7<)21LLl|nCB8Cn'
            's1U0043Pi0<hYk=mRF{s44#*{BxK17Mv84h;uF|`!k!sf!kt|5kX1f>^xJ?%~Oo0NB11CYfj|xVv'
            'S+x^@+@@a}rd9#Sfs?D=F9jo)t)!B4At@+uo33n_u>}AJ&e?ib6bxLpNV^ZXv;#XX1?Ilet-vl;K'
            'v1fUb3BiBY2PV5^hoEDxxFI%mt%6~&8B~pN#^SK^o6Vko!sSt4Xi%`<wX<tgQFX51CxTU59(M?HR'
            '>YmBeTq9D#d1<i&dI)@%MXOa<4|AKEK<eQDpYJOrzLrc(F#?H1QW}6dI3odo+s7%9m*ro24(-Xsx'
            'V$7#S676csB)D8Qh`g-`Z_7wnjl=8tf1!XZnQC}>lfQ_vS}ZOpDi*DQ)uiwp3|bX(H*Qmos0y)bc'
            'Dx<j|<Qc96-aUp1#Zc93TignwrptD1_=mJlXZgEj^nQlvZor-nauFSMUx5Z_r^@lt!j$dEX{>Yxi'
            'extr$f!6ifvZ5fH1xDqcUVgu-B$PIR-L0<z8#=?_1-5t#G-izoQ(*LvVJZwgU=z7Qqt~WB1qKfp5'
            'yHR&cBvaQcx}p5VDNCk7yH<T4i{{h=wMGPqae77)VvNs#b7E7Z$RMT!WkHP1>p-Ez3Q#|0)ZYbV1'
            'S`l5Fo(OtIY?X5a8iFau|389ylDlYP<t!7uc`lc`mPC13~esTU^yrweA^)Wh$|_{Vf!-Bo$R+Hbt'
            'r1Ek71(wgtl$BsK-B+|16Pf?@OWn}X#WC4x(DWA1)iGGLy5me-AB6Kc!tnDdO7Y27OyC|f)uaSAt'
            '<P^i*$?IOtu60}(>I8acyJ0x&|CJu8_K^0O^xaT5qf+h}LQb9FR(BiC?*d`315p3lOArWDKS$vib'
            'WPGhI5sF3IXL1G5PLru0I&6-bz2~!734ll=dpw}<0lPXR9==Az2SE6c4HZ!MfGrdn4__m01t5IL?'
            'gc1(KtIUh;cG(Q5I0(`U{_MdkMxoewcX{ySgV;uVM_HJ1!hU%906uK&k_SByf!XTV3t&>5n#5fO{'
            '36+SEDrw&63(M0?l^SU=*6=p0a<}XL4@%Rg}2RyO^l&F}h%;U-tMZ)64spzIH;{@uNiOhqL(z=#}'
            'N3j@rmujLyH^C|ZupMjf%5!W1~Zd~`Z$QsIt9NKGo-i;@~cNxc*DgHlq{NOd$$Y8t7IMM|wio|HO'
            'z^?0Pz=4zdroOe4o<X1b7`RtI%(O0J3^s*W<Io#e7R2?NxHSLZ$5>qv)WQXLc<_b}L72Wa4s!3IL'
            'G`eb9OFJrGHH~yf<*TNV?x=j#JEhypS55eMYQAbbgQdP2<+OZ!DQ1<)9ryCuamR;$E!~jWi;nxFl'
            'UmXqxaXp^q{Z%B#Fn(!or~JCg2#14a!b;*(P`N&X;C~oy(JBbXQ#KMLGjS^mR0=XXVP1`tCMPSf}'
            'IjM*Vtb9toK@5;a%fft%;WKl5|&{i1M;ZLG1*bmsM(YCt$s-QU-kSUhd?*q|9udi}#W;YkDr;OUj'
            'Jwxri^TWP5SUmsLF5BT--Kt5w>W$Cs6z%6Yo#%D7hJKjuPiCxO2n8D<p^`^AR&R5r{i-v5ga^QnB'
            '8RU(rYBj!^XF{?yPFHX!uaAFcyHeQ^V2javeuD856F%QIvNn8bbabg~b6O*_$^%XfWt3>$6BE>XU'
            'Yq=dez4&mOcfGG$O?_U{Nw?kCy^AKZO1OO<#>^^_?Rh9Os|1nfA<e83uf1q9NoX@EYhCA~&7`b%o'
            'sTw?vgUO@-pnd>FD!9p6~Fj-%$fSCJKxb|^BrCC>dcIEe1IZb=Q;+PW|g~=$Kcbfa#`{ijGDBf9h'
            'FjZ_bur!K&e?NA9_Ge%}Uw91CnZ1%9R~}RkP|*|3q3%eKls@)3R~acXHm-0y*oCNVHkyZsVD#Hmh'
            '84JQLYwm0ONyqT3_|@aTk_mD&PM%D7p}@jN%>Cbe^WZpuw+2l|+ln{}LNEam3HkG_748MsGny1Qr'
            'MrUJFPa6Of&FTA^qPrUToS5J@9b4U9Yu^Y`t_E4*|_p>KXQPpK$v>*Cy;a!g_y?4o9lwa?Bv3{lR'
            'YFeF|t4Q^py_zwhc5dVZO)sX$?OVSf@wO;$KNi%ZH7p1S;k$|Up_zkc1}anIIwQoe7{%n;4jC9u$'
            'A4)3#?g;kri*YQT=ux=V99>HJ$B(@BP_!mrczq#jq&>P%^<^%p9>}rnvRJcZ_DR)z@z2z`TKID^{'
            'pEve_Mn^WQOEprqvbPU|IXohx!&Sa15??*^iHlk~$9?7YGf*gE1P0=6wu58b-$@UU}wi5h3oji4A'
            ';WO+alT7wD$LT$oMx_pM_Sj@TxA7))amW4ye}CVZ%yu?a<Q6CR8zHle9(VgsL86HuGT<u1~h3z$v'
            '#_pM_S9kEUL%m$H7Z~~j~*^7)#7<!xVU=Z6xDm~=)Q?R2(82B6p9>Fkk$ZUzBP5YtW0wD@|{#cqV'
            '@#v5mH$;h|Moi2+*JC0~W<Wo(Q}GiKn9L1ip2pG9Gxgg_Wi(K(Dp0G>ggwM4GxS)uGx#)eho=M4U'
            'ehXy5PY`mv2yq)K>XPsVy{+~kll;o+dcS=JI;tUqfeEYB1_S+lg&#uZt&R|CdzVd_DoH|p&1^T*t'
            'BLcsk!-47p^*I7QBjCctwt8!TRmxvk$`IKlt@qBIUW?BtrF4n1rA-37_vIG6_jw67y_l&Lm`^N#t'
            '|W$;>psB<8EmnS`if5?+yYOhVC_M5ta0lTef<;gi;TO(IEo?RSz&1SDZ{nldKI_EqRbU6r-$o{Z9'
            'b;Rp}Gp4#-V2@UXqkHkpVtRrDlI^g{qjgc-ho0DWlL<bcPcss^oglkmFkH_2yMo`3$080v3|CR{{'
            'N?1}@2T54{CWr(|SW@f;Nm%{1h6YMlQh)|Y*!o6=U{5Xzv+{EA1JS_6WubHHkAIFS>8{jy6ZOgaP'
            'MM`_*%OO;+i>_JKj-LUL~B%=*%r;8_ZiVNMzlsL_HEJpX%EQHf<&9A1}lg*JL<D?&5wFejxxq7Dc'
            '$U#uOi+2oX?7f&Nacr^QU|r@gz_@blw0ao<HL2h^Nbv_AE-*&mDkdx_+5|K;?S!E>yB_4v^~!gY<'
            'Qs$--O@3(`Hy(pQkAs89~}Ig5F^XCv9Ok)n!qy{}faGNTil`iY_L=3YiO>AZV@tm0*%t1oV<zWn|'
            'B=jX3KKKo6gD3?F2I9&T|e|B%{Lq_*Me{?}}&nF%MZk=MLo6wHB<ILF7cl(#taizNPN8|W!ckJ=s'
            'ZcL3NlOR@PUOoEoZ$i<IHu{@TwAbM8-Gjf~Fp_u+@UJxX8!6M582XKr>EI*3?a*hQ{zy39$nTp_+'
            'zBoCNctwEi_$pS8ao}R-1VZekxfpxVbGDG9QjT1L3+S}--L1<aojhFTt}MrO(@rwn)QwRNd8ijzL'
            'BzhsX5<B*}l}2Z>VflW_*`CoO;4Hu46-9t?6Ur$CtLwr7q`92YbKOq%`AK?+eUXUmb1F2IXOKw2l'
            'o**$&#TK_c7H+BFDe`*O`1MRD>MYSk!;nZHn@Mp69yh1xXs9sGNnH1?hRf{`5kD*l*Ejkk`D|2{_'
            '7W00<#%b)(-+9~|+I8Pn^VT!@U;aO@$=rL~L6z|Mv>$*9E(XD{Nj^w_AA%`8721c%OR>EPBLy}&>'
            'ki(8710z>C@6ln9L$Y1Lki!oC0wdQVvl6W)Eh03*;$5yt9qU4-+%Cd;kWcwUy3E0jo^u7l5SYmEZ'
            'XF!MTCQE3T0&rmo+kyu5STFXt|J`7TJB?<!a`t(p4$Y%5SW<q?kOC@S}tmwDnnpcT+s4w`ZO=tFJ'
            'XUeYr)&NoLIf6Zz(RgV%@|9l`C&4e*4x_2lG(gvgz_xIFEaE%ylhyHA={RKxS@3dFV%f6#_WYTLq'
            '%lrY{DF8kFLm!BIncszB7*wA=tugR<vyIBG~Q6^L4!ZXO_NsE!^Jos~<-a9uqyjpXwE5V=e5wnnO'
            '5S45*~B>*<uI3oyd;GC#;Rl&G5s)Pb?!woWm;0DgMdiNBJTcau~05{wSBM5Hb9Ikgs!ML@q;EpSK'
            'nio4RfS{6FH2i(;M5-$@ZmRA&rZ%d(Qd(c#71nJhc*|zTV-vo`v*X)%)WwtIv9q3vHUu*9T&7WMB'
            'Dz?kZM^+rjbcY!6=@Wi5HHgxHbGvj(KeAtu|~0zy^1u7Ow^ZY6q~p&)@Yk3saT`9d9X#p;ZdPf*='
            '+cd#*pIK@U@yn;_z?BWO#HHqe!v1V6RNGB`q<<nr&4}*`Zl<ZKX)FxNx*gvn9<y#hPtZ;n|^Cbj7'
            'Dgv$%k{OtU3zP{o>URd?E<+2T6X`a_-;(XTIQe~iy!cQH9)I=<H|m~>oEtyn5osS^D!r=S<HqAA+'
            'zgQ**Z*5L&1_2pngX&COnc5s0PuT2yS1`ipv!oUOen=3SUZ30Fxc*p<|1|G1X-Jrp16Ptm-!^L9k'
            'V;eeL>}8_UKCO&`SSwQVIs~;F@fiX-Tyz7&t{|F$V^_J!Um&o<#Sbv-3gQJgc9ky>C<Jym4;_YGf'
            'kzI<uI=RnzmTW-z<vn?b**l3olCX7p%~5SUR)x_%%V%xX*LC{+g?A-&)yUaTdvp?taA4|g9?Vt+H'
            'VS0w>dqWIg=9%n8cqYeIwD5Y<RKLG!dAXkxzR?=q>(|#oXmcz@pJ4=@ckP&V<82*?upPa>AV>fs-'
            '?FxKqlhkaEHu8Htm#RVoZ9XZif#r!o%+BI*IN_!LbJmu`6jQ7oE8lWT&uqyz(JK|`fmaT@@!M|Oi'
            'i;RE)6NIZOv=o5hOAzLq?@By1GG#<W23=Kf|kbMqN_<&B4#lzQx1S0OyT*0oS;veZHBWkmoiLp{M'
            'Yr<6ZISR{?8ao2ZR#kNrmhd{dL}6J{)ka|1s*a7q5?;C1C@f3r$OtT(xyu+V%bjNbuFrFw{TfOf='
            '-m|8OlWN+8$PNfGkRpX9t3elPPJghJ0smFqYz9CJlEpbJl7FvYF2;It4HU#CKT;xJlBMxy?Cw>Jl'
            'FdGKPJyLiA)FMxh9e6P(0VV(|Mlj=+)!#T$`(PZX7u&j8usUrkxq$A$?`qjW6>dN0l64x{v3Ya=#'
            'pj=bBKiL-AZw%5@~3YeKmW%5zO(Vh829CXwx+Jl7<$9hB#KpKLpMuIV05&2x<>yVO^s+*oSTo$Ru'
            'QyS#SXjkPA#S)DrFkIr^Uc@mwA?UE9?bFp1gB6lvfOLG6}h-{aHS)sGDU6NpUa<)qn3{TE>NrK^#'
            '*)D5%!Ovv7bXO<U=<*6DZO#$4SMFcs&PwkH-zV0R@?8?{s1xyBR;Z7ifbX(G>For3mldjdFTTrte'
            '3yh-%Tw`P5@tkC#dk@VZ9Ns=WsOWOitn<9AA2OeOMSIUyW#R*$CSwVwd%^aR>MDb%-Zb)@7H6ytl'
            '&?-*e;*Sc3HvKf3aOYmF==Z9P(njd@9>zg&66@c6kK0OWLZ%i|z6_Y?rjPlo#9Oao8?tD?Bf@%j2'
            '+J($<~6Alqe)c>Y*ym*#3Mx4vg<qa9m~4O>!m#%%Xv@1nb`5L=&z?y^D{dmg&W3K8RZ=q@V+XD_-'
            '-3c5?eGS=znE(uFnr=z<hEN7jL?y^Qn3rTlb!wG&K-KD<j&bMau3(wzCaK^W0N$JdX4eJ<emlduw'
            '9)s<&!kxxruw7QT)Oa|y%iY(QzX083m3-#`=`O2e|Bg#{Nt+8h4&7yq)BTBbm->1e#5#7UaJz8>Q'
            'ThfI!2mZ956N~};S%DR*e)yFL_8DQWrgdAXJWe~gzxBVmsM)~=VrSk_A*b+c1i5Xo|^5F*jqj%+h'
            'rBc8OwILaGI|lV}|WfXzuQrwyD~zE?iGF=L_#H;}b9a*45La^xUhyh2^G)clc6HWc$9?UbY|lZQ)'
            'Rl%e{BGUzA_;e8qmb?`m42nrlh*&b*rVlo{_tH<EI$t*6KDTfZjpwkTRZ*3_dmtO*F^yNPzAnS*E'
            'sHc{g`BgC*AsqM-}Npp<$+ebexg)TyfaM9zEg9ZE5_TYs}jlc}|nM$dxH^}SHH=_(cfG(J1XF3jg'
            'ye*$w1CN%==kLo=7PxAc{B02hk=c?Dlhzh+gJk6=AL?7UyfK>EWjj6)N~$~TL?E;X55;H^n)eaA7'
            '^IdRR&VBQ5fARRg$;0GH9&147uKeOT9_^P_pM+Hj@TA_%u8VlV`#j~7JO8ju?0nM3myu3ThLUtum'
            'Mi22B<CMaun$d1<V%w`&O`pj@TA_0)xaBIDswr6h+1s481LQC@5_ql>qYlDA-9O27HbIk1&`yUbe'
            ')*rmfIxKZHQfA4{<t9z9OuUMSJgh=`eIb4-ND4CY7vDSjdXk-25eQ#CqzrhZ!~bq1<c1xod~u7?<'
            '979MMM2A@W4?sUM}>sdunfX|0L)(toP`13wQUac%4w-Lp+dz2fuj1lcbp9?buMxtX^nwRX^;1e^<'
            'gyo#+nT~=}GCU)(S<7V3a`Q7TTy@SOcomEAY8)+sb(U*B3=&bD!hYWCw?syBzcqx)C9noTX$?M`N'
            'n#C>z#8Vc%$zmILTkw9os(H-fHlllowEi}#TvXCYgmJ#vxZQ)1lFJ^t-<G`_gO=dV%l#am54jSyf'
            'azok!_FAiz+E=+V>dc?!p-vf<3W&VG|kPO&p1ltx;>irfk5AG8!XWqq_g5Y`}Xg79(4eqI^6+Mlg'
            'bMd<0igyxR9cI8eTl5;;h|%6B#-P`;9~HAue7_bN0{zLHWhNWQjr9|U`9d6$(Jb{}X4t}F|kSbyA'
            'eY;AV6WSgio-uKEZ8Oxqkp4&#mAM-h%9wS$aQp>hn{)o@Wr7?1~NSklV<&Sqj;uR#<JnKg-*X(G|'
            '3N=64LAl2msHAAKgPmTq`LUjr4V^`T$>tCB3bIL{Z0MW-Og4X@SCCDY<=|PAeV?E9$?W?wwSY?E<'
            'h`Y2yBi>h6NcdH3X_FN92VqpmPM=}0YP2R_34Ot8fPPkvypg;6}_kGv@+iko6(6;?&iKkH>taO;H'
            '#olVe2Svs-yh<`{(DcKR)~2p(qzWtv6ixY-4tB>*G21KYw&KbI&K9m~EYLq8pp>gv-p!wvKg7b;F'
            'N%H%!ZRuW8w@Y1yx7*{^BYuW8w@Y1wC<mVFb7JD~+1dDqNpYUlB9dzsio=f=k|LgqCs`!y~5H7)x'
            '!E&DYs`!y~5H7&csv}{~6hP+y%*vLH5ah|Kf^gFFT_lGarDKqD(aIa>JS2M<|8RONA@oL6+HDkP*'
            'F)B4<<W7DSe@v$4Mn|WAAEWCrNS8W)_;YK=;9p6nP3rIuGYl?{&QdEvPfZKQV`rvD*G(CWZUqc>B'
            'tI1lIqY;YFmjcX5)OkLl9~#J9CivA7`e)6j}C(zl9dXE9Cq3k7`YaSm1s3-5uy1N?{Y=zSQoMx8C'
            '9gq9PH=;Qy>h1c^vQ7!7*$_LWRH(J<17$AuwO$T}L>Et;nYk7@~(JfiMK-rM!Cz$FLRY6avHIdX|'
            '6Fr+LAC3HwW13x37raOg#OOL4&!AN^iobLFl6-}T>Syq9E$>XuDcx5Clas}rT$3?2#z+twBXrG_8'
            '<RS4inZxx7Io3<DrYEa&J21gC)sRB`J({Tet4N7Xy;iw_KR3K_?nt6bzp&EKjbXG1Q!!`B9w2#a8'
            'L*y>K+Zw5MT@j6nl>pdqqlF;2fpenXRR!bLs1ORk4L4Q@f*Uy3>fKW?ZjFkp0NijRg&??rbGY6m1'
            '>@GbfIF__X<qEO0D?kp(Zuz+6REDuxT(17R6e~crJZWK&T6-v-Ypx~j!pL#k85w^PZy7C#|~dA+7'
            '8IHbD2i5Y3O2&w(<3gHHw`&Risg5I=oDy*z|a@M%%<8#Tvzq+bYs1GEHBmQEb}2Sfg!Xq+*TY=CT'
            '&eWk&^4Wn<Y(+CqxQvbU;P>=?_Au3;1@78mN3X||*xrdYGBDk(cOi>|B`X%-iZmT9)66{uLVt?D~'
            'FG>fkH6loS0E|+PxqzS56v#qL5J2YEdg<5~e)8hH{CGC&!S?n$*2R_HQngx@N>#-9{n_Qhr^uL@M'
            'uVE=8^VhJVq1Nkjq8r85;Xv&5<zQoJ81TSuaDfJ|O&ALX4;i+?zyr3MD>Qg*B1SNH$OsVz9<ZO?p'
            'uuYsoPoi^1!L@E8#-L@WuoIgt&D<TD^l}11hxC{83H<7cmu<(Ae@0?SGmVuAh5#)5HRct0tPsCmG'
            '2KI1a>$V9fn<jOAg1b?cD^wkf%ApehCC+t!{CfOEtZp7|qdM+#tuyjZ4*OHs!0^Tt7{?-V_X5uGk'
            'c;a_>8X3Wm+vZwgkoH9edhlM@V>#GfU7Bhiv1c(Kn!$6m4+ksL`_G-f270|g1%Y<w|HPPlU<aB?;'
            'qEew+r?#M`-oXy7m!sIL;`1@4e0YOAOU=|;v$yv}XFCdCVuV`{j(4LfFIxJ`kbSr8DAoj?15GZ`W'
            '1`vsduMv9!5I$t@1r$DDw}r;T*NC722p_W10SX_`E3$a_ns7kGEt)IXm6ZG=y<|jfR^*SBnpqR3t'
            'j|$cmK50$ST=JrF<8P2=@NxyNm(0#WiwY6gC)Fltx;H(6p|5GHglITSe84@{#~EvI{P(%9O(ZCCu'
            '%O!'
        ),
    },
    'crash-lead-bt-P16': {
        'tracer_stats': [
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=0.00012138533333334043, merge_comm_time=6.618533333334125e-05, peak_bytes=7104, bytes_by_state={'all-tracing': 3680, 'clustering': 49408, 'lead': 1087296, 'final': 94688})",
            "TracerStats(events_recorded=261, events_skipped=435, record_time=0.00020163000000004402, merge_time=3.116533333333629e-05, merge_comm_time=2.2765333333337606e-05, peak_bytes=12272, bytes_by_state={'all-tracing': 6208, 'clustering': 6224, 'lead': 43552, 'final': 6224})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=2.8370666666677376e-05, merge_comm_time=2.1170666666678068e-05, peak_bytes=7088, bytes_by_state={'all-tracing': 3616, 'clustering': 3632, 'lead': 79888, 'final': 3632})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667600000000416, merge_time=2.9308000000002193e-05, merge_comm_time=2.2108000000002886e-05, peak_bytes=8816, bytes_by_state={'all-tracing': 4480, 'clustering': 4496, 'lead': 98896, 'final': 4496})",
            "TracerStats(events_recorded=792, events_skipped=0, record_time=0.0005850000000000122, merge_time=6.272000000000742e-06, merge_comm_time=6.272000000000742e-06, peak_bytes=14000, bytes_by_state={'all-tracing': 7072, 'clustering': 7088, 'lead': 155920, 'final': 7088})",
            "TracerStats(events_recorded=66, events_skipped=726, record_time=7.259999999999996e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=13984, bytes_by_state={'all-tracing': 7072, 'clustering': 7088, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667600000000416, merge_time=4.0639999999989365e-06, merge_comm_time=4.0639999999989365e-06, peak_bytes=8816, bytes_by_state={'all-tracing': 4480, 'clustering': 4496, 'lead': 98896, 'final': 4496})",
            "TracerStats(events_recorded=42, events_skipped=462, record_time=3.107999999999925e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=8800, bytes_by_state={'all-tracing': 4480, 'clustering': 4496, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=66, events_skipped=726, record_time=7.259999999999996e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=13984, bytes_by_state={'all-tracing': 7072, 'clustering': 7088, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=66, events_skipped=726, record_time=7.259999999999996e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=13984, bytes_by_state={'all-tracing': 7072, 'clustering': 7088, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=42, events_skipped=462, record_time=3.107999999999925e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=8800, bytes_by_state={'all-tracing': 4480, 'clustering': 4496, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=3.264000000001519e-06, merge_comm_time=3.264000000001519e-06, peak_bytes=7088, bytes_by_state={'all-tracing': 3616, 'clustering': 3632, 'lead': 79888, 'final': 3632})",
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.00046548000000008646, merge_time=5.3013333333328146e-06, merge_comm_time=5.3013333333328146e-06, peak_bytes=12272, bytes_by_state={'all-tracing': 6208, 'clustering': 6224, 'lead': 136912, 'final': 6224})",
            "TracerStats(events_recorded=58, events_skipped=638, record_time=5.68400000000001e-05, merge_time=0.0, merge_comm_time=0.0, peak_bytes=12256, bytes_by_state={'all-tracing': 6208, 'clustering': 6224, 'lead': 0, 'final': 0})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=3.264000000001519e-06, merge_comm_time=3.264000000001519e-06, peak_bytes=7088, bytes_by_state={'all-tracing': 3616, 'clustering': 3632, 'lead': 79888, 'final': 3632})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.223999999998759e-05, vote_time=0.0003139733333333561, clustering_time=1.849333333333496e-05, intercompression_time=0.00014058533333334176, space_samples=[('all-tracing', 3680), ('clustering', 49408), ('lead', 49392), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('final', 94688)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.0880000000000898e-05, vote_time=0.000321095999999986, clustering_time=1.768266666666825e-05, intercompression_time=3.116533333333629e-05, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('final', 6224)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.223999999998759e-05, vote_time=0.00033542933333330707, clustering_time=1.768266666666825e-05, intercompression_time=2.8370666666677376e-05, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('final', 3632)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.0003704386666666358, clustering_time=1.5777333333334698e-05, intercompression_time=2.9308000000002193e-05, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('final', 4496)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.375999999998878e-05, vote_time=0.00040780266666667116, clustering_time=1.7277333333334897e-05, intercompression_time=6.272000000000742e-06, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 7072), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('final', 7088)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.375999999998878e-05, vote_time=0.0003369813333332942, clustering_time=1.6872000000001542e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.0003391546666665869, clustering_time=1.768266666666825e-05, intercompression_time=4.0639999999989365e-06, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('final', 4496)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.0003956160000000023, clustering_time=1.4682666666667853e-05, intercompression_time=0.0, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.375999999998878e-05, vote_time=0.0005411799999999849, clustering_time=1.6182666666668052e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.375999999998878e-05, vote_time=0.0003621586666666607, clustering_time=1.5777333333334698e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.0003479119999999459, clustering_time=1.768266666666825e-05, intercompression_time=0.0, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.223999999998759e-05, vote_time=0.0003731986666666619, clustering_time=1.5777333333334698e-05, intercompression_time=3.264000000001519e-06, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('final', 3632)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.0880000000000898e-05, vote_time=0.0004105626666666591, clustering_time=1.7277333333334897e-05, intercompression_time=5.3013333333328146e-06, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('final', 6224)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=2.0880000000000898e-05, vote_time=0.00033974133333328216, clustering_time=1.6872000000001542e-05, intercompression_time=0.0, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 22, 'all-tracing': 1, 'clustering': 1}), reclusterings=1, signature_time=1.223999999998759e-05, vote_time=0.000341914666666613, clustering_time=1.768266666666825e-05, intercompression_time=3.264000000001519e-06, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('final', 3632)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': '29eb38aa995c391a5d7ab30223705dec',
        'leads': [0, 2, 3, 4, 5, 7, 12, 13, 15],
        'failed_ranks': [1],
        'fault_summary': [('compute', 0), ('crash', 1), ('delay', 0), ('drop', 0), ('dup', 0), ('failed_ranks', 1), ('lost', 0), ('timeout', 0)],
        'trace': (
            'c-qBW+iv7G5`E8CG_bE4hs8S`<YNXCV-a956WGbT?5w{%>TXG`3n|v2NVyF=9vL}06j@cLid6mQ?'
            'aSw{pZ|XS{N?5HgD&6xdj0<8?RT=5@2`LU_s?&?i;g<ksZMvMvz_aF7dq-MQb)2Q)sgPV{POkt_r'
            'EUk^1oj$mzN)xx0i2!T;9ZmE>9PF?!SH&zf%7t`+tjzd?z8bcoO&j-hW=NUa!2<MgHvnCIkg%$&2'
            'wrKf{w(Lce?xrvEi4($n8WxLuXvS<VR%NI>>i`k!|KkMAX@1VL4QMZK$iPz8eO{)&Fr`=A<q{^EY'
            '^_C3ym@xe<yn}yp|8FU~y|NSu+`lpmjA_gXMTMB}%-}_^<Ftog1yMFIOI~ZEsuBq$yKD56<>*xOK'
            'V`nD7MA$P!0>)-f4H1mZo*R<Y%tnRr<7X2>nX5r<rioNL3nJalgvhk8q0e8xzP|kNPam(|=x+Z{1'
            'E}x+XaDZ|->%U8R|Mk!t625=@};LsS8M-7&+_@xoaxg=&B1DhsNuezb>B>68n6NjD-)3JSW>XCGI'
            '40YBHpvD@8pL2OXmF<HZve9CL+U921Lz7gky|bxJdPJF@{eBk1>2~JjU>`8FMqtwrOJ#^J(B3hpl'
            'cLuDWsfdd3kC9;z^StP&ly2y?xXI6u{4Q^1lPHY}Fzuwk);hd&R^Qyzc{p7a3Vc-jMi^Bvz!qUdM'
            ';{7Ek?`38T27EppqfbH)TaUt0bPf0FhL0VJ6I2t52E$oDJOG6>k#!})D>V|qezp?8O>bhR&?58+R'
            '`MF6gW0O|1*d%vzocz6^G$#)SWjc8{DA{2==+^lThXS1Pa6sX#hXV@77`1kuXUxDd_aa*44g&$Uw'
            '@roz!5<;pS%xCcaFpb5=DT1~L>i969Mb$qOhu&O<no9IdIb284e+e=vaT<3Eqsx$>Wku0e84)MYR'
            'aYL=#W%1xLK;HR`J}rneR))^WpJ}^^>~ONJxpKIlv?0sRYj?3FX0jk}T~pN|`K4D68g^<S81#Bnj'
            '!G{Nia9oHcGj{LnmVFUIiLk=YawhIJi-Fgq;U0>ZFnWDsVDWLH2KF2tKfv<KH)-BLV41uw=U=y*9'
            'EL5DTd5wDc0c`)aOWK+Ln>-!~AO&yb~@0dt8^-R9LXCl+aH6@Bnovflx?Sky}+}QQZ7+<1#5oRSP'
            'x00wX%t}sXSEB0mRLr;(>Qr!SkXYr>g%m4D7m}?!x{!7S=|TdQM;B7D%=Oh;%A)p$>sjtVVNnZHh'
            'm|dtIxKHt>afP;Qip{uOdYPi(z;}Ju4Rm(J1o><P0JXIu-t*dg;<z6T#MyW$Lp~$ceo_W<&KwSVe'
            'W92aWraFsLrl(j)nomHVPo5+D8!AD1wk~A3}Vi5JIM542h>DGwkEJiCNIrod+uC<vZca9D>gQ()x'
            'T@NR#tnp;KDGM6^Dog;0S{X(8b7DJ=vX)^K7SWAFGU$~V7=#o!vrDL2OOV9|yUhV>eQFfP>)#;{6'
            'bFvbNM!WcgvSH&$Itp%%=j)`<j&qSt;Yl=&QJM8guakSA%{Wwl}^Cx>}=uli14LTE-MT3fE`Dfhv'
            'L>z+wTwY>e!gU`8CSH))WXxwh{i#xtXMmS5@|bvOA&&{C{PoxVfp>kXnt^Lz2EL{lB(}OtomYPJa'
            '$oM+58(rjV$tT+sF6wGE*CT|Xpf6S6?-=cp$hG9aj0VNJ0Vn|y)6z^ELd|^RO@{$%)0PhE#4sEJu'
            'Q$nE;(4V;r%R-Hm+(|wBfxhkTxuw!bT08VF*j<#Nq&pCl)F!pIE54fI8-nY8}pM=8<d@k3_1qOL9'
            '$I66w}H$v5#yWSTjpgp3`45ha^%(={|{N${OX$-9k7<Fpo|l9k#F`j*HDVecO&q#LYFkTyXLA5Zj'
            'C(zB%BdYhw6_pThTNjGi=pKIZjL!M;bKC;4*CsnqOtP5so>3;5WWwrPHkEu3gqMp&l93!c_W6bsT'
            '%JW*dm;G_u68wc5*vEGz_zQF0$B(r7sxof}r!ADw0;Vn2{j2J{#ae(>oj8(BERGIN9I3_zN4l}ak'
            '!faf$<AQ206B}05tvPkOt%M{TF}f9x1mv4C*=?XHBF&W>R`uD2*au%t@}Sr5mUQcXv{VYi!;dv!*'
            'tiMIAAsgrdx-_0kfem-9Iex@Y_bbbUU#W9hTjtdy1uCS=N?rES7>T2y1TXebq<Hkx;^`B(6a>D2Z'
            '#(4Olam?mbp)O?1?jY#Up0ZEVR`wxwh<vhsM9?npNFrr~FGwtv)q3{rZGT-TIs%-+nn0{Sc7O_#0'
            'r^T?HMQI_R|W^@QPn$scJXjTW!)2VqK#;hc>!|qU$+hKP=oN1(=*`rg}`PwAb-Ym%naHz2!XGvVZ'
            'qsAJYC2@<Ax5|c9FMVrfSEQR87MX^YmF|C5D~q$6_<irol1b#G(c_yJMm)ly5^jupYRd1Fma}kZc'
            'M>@k88DY)VS?!#3lq%fcoT7EQpaRekk>Jh3sO5KazR*A8@F6KKL_1rtf88m(E%KKIu;3N(11q{rR'
            ')nLG?P8z>_sX40wKVpk4OP3rC*R#*K%mJ^6Cce%r$dozP>x#>%xYr2^UYX9}39z|CSdQT~Kb)6T>'
            'd3^QzYf(;Uia%QOf(O|1{9%e|a%(Sv}Ghv#l%y%HJ+w<0kcrHdu%+>wpqBmufQ{<lvsgSE`|xdcb'
            '0vrjOv2xhRBB?B(OQ8w)ooR0eK6XanLZ@DZy)qUm4-b*R}i0nG$l+wP+#Y!M-JKAzej#4s5Iro3N'
            '6Ki0y4CvM2z8u-POWh@FVX_S9)sem&*}0eACF@|aZ0J!u+A03SE3Epe4=^Y88lChSADg|TCNagwW'
            '=zxSq~FK;B$5rClCABONHz3IuC`Yq-Ow%h+HQ$V3%?YXrB~2VlFsOEAToPCc3F~pG*4h}{Mg<o>{'
            'Qg!ZWN(9*eMyYQjMi9qnw#aU9n16q>aY97sXELEuGmF513m{^B{3>w+biDtl7mHwCxfHx59AZ+`^'
            'y$iGu}4{t`T6k4=|bEK=Bt^>E7!9w=^^1A{0iqXL5fYFzffAPOqBz#xE1mpd?sg5of3N_9tUsZxP'
            'BENgtVO)1v&t)3}`1A{0i6$67PDHoTFqM%|7jH0A!Tr!G+!g0;Oba;<io)njC%eX}9q`>4_1}4%c'
            'MJC@eGLdN=nsSZfY8|LE%K_Zl&j7DUSslc5pe}QwP6wr@g9T2e57a@Nz!U|-2D1nV8$3{l&C{6&>'
            'Of`%2kO8(6db4n?@%Bv#U`o`H~Ao4>6bD9Ur$*{$s2KjngppA2uU9G5)BD*FOZKs?j_0*<X&>Rv9'
            '_11cDk{hlOx^S%aLj5=62fH)jHltTM>8dc9c8aNVC(8Hgmdh=dk}yce?}^@Ngps5<J_;fdng!tVu'
            'ZYWFwDIK}C)STu>$B0hd&+wl#x~nVV>5yc%;8ZI4%DZlXQ%s?3e4YB#kG(ABpZ*UD;qb*o8t&a3u'
            '*nqIv>aBpV<>{JTxA2X>lJC)jpsmafE)>Au`w0*;GVphISi4GRrrDT#u->3sggFBQ=(&(#tAZc)S'
            'l1Um>49rD$=FTK+pC$W}?12~TO5y`3Q9#@Q6zoXi11M2i+yNBqM&bh~P;_CdM$R{#bj!ZOi#px6@'
            '9=U<H}5;V5OzBF9h#(S8(eMOn{DUbNS)%}Ts!|p`V<G}+c`KgZ9Uv>!#}<N{}<lL?u-'
        ),
    },
    'crash-collapse-bt-P16': {
        'tracer_stats': [
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999989144, merge_time=0.10006321999999998, merge_comm_time=0.10003561999999998, peak_bytes=7120, bytes_by_state={'all-tracing': 399168, 'clustering': 49408, 'lead': 691904, 'final': 49440})",
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.0004654799999998297, merge_time=5.1228000000039416e-05, merge_comm_time=3.682800000003343e-05, peak_bytes=12288, bytes_by_state={'all-tracing': 56096, 'clustering': 6224, 'lead': 87120, 'final': 6240})",
            "TracerStats(events_recorded=261, events_skipped=435, record_time=0.0002016299999998324, merge_time=0.0, merge_comm_time=0.0, peak_bytes=12288, bytes_by_state={'all-tracing': 49856, 'clustering': 6224, 'lead': 0, 'final': 6240})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999984287, merge_time=2.177333333334714e-05, merge_comm_time=1.4573333333354772e-05, peak_bytes=7104, bytes_by_state={'all-tracing': 32768, 'clustering': 3632, 'lead': 50832, 'final': 3648})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.00026675999999990974, merge_time=2.369866666663764e-05, merge_comm_time=1.8898666666658775e-05, peak_bytes=8832, bytes_by_state={'all-tracing': 40544, 'clustering': 4496, 'lead': 62928, 'final': 4512})",
            "TracerStats(events_recorded=792, events_skipped=0, record_time=0.0005849999999998803, merge_time=6.277333333345146e-06, merge_comm_time=6.277333333345146e-06, peak_bytes=14016, bytes_by_state={'all-tracing': 63872, 'clustering': 7088, 'lead': 99216, 'final': 7104})",
            "TracerStats(events_recorded=297, events_skipped=495, record_time=0.00025514999999993413, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14016, bytes_by_state={'all-tracing': 56768, 'clustering': 7088, 'lead': 0, 'final': 7104})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667599999998681, merge_time=4.069333333315585e-06, merge_comm_time=4.069333333315585e-06, peak_bytes=8832, bytes_by_state={'all-tracing': 40544, 'clustering': 4496, 'lead': 62928, 'final': 4512})",
            "TracerStats(events_recorded=189, events_skipped=315, record_time=0.00011330999999986999, merge_time=0.0, merge_comm_time=0.0, peak_bytes=8832, bytes_by_state={'all-tracing': 36032, 'clustering': 4496, 'lead': 0, 'final': 4512})",
            "TracerStats(events_recorded=297, events_skipped=495, record_time=0.00025514999999993413, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14016, bytes_by_state={'all-tracing': 56768, 'clustering': 7088, 'lead': 0, 'final': 7104})",
            "TracerStats(events_recorded=297, events_skipped=495, record_time=0.00025514999999993413, merge_time=0.0, merge_comm_time=0.0, peak_bytes=14016, bytes_by_state={'all-tracing': 56768, 'clustering': 7088, 'lead': 0, 'final': 7104})",
            "TracerStats(events_recorded=189, events_skipped=315, record_time=0.00011330999999982835, merge_time=0.0, merge_comm_time=0.0, peak_bytes=8832, bytes_by_state={'all-tracing': 36032, 'clustering': 4496, 'lead': 0, 'final': 4512})",
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.0004654799999998297, merge_time=5.306666666656402e-06, merge_comm_time=5.306666666656402e-06, peak_bytes=12288, bytes_by_state={'all-tracing': 56096, 'clustering': 6224, 'lead': 87120, 'final': 6240})",
            "TracerStats(events_recorded=261, events_skipped=435, record_time=0.0002016299999998324, merge_time=0.0, merge_comm_time=0.0, peak_bytes=12288, bytes_by_state={'all-tracing': 49856, 'clustering': 6224, 'lead': 0, 'final': 6240})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999980124, merge_time=3.269333333359801e-06, merge_comm_time=3.269333333359801e-06, peak_bytes=7104, bytes_by_state={'all-tracing': 32768, 'clustering': 3632, 'lead': 50832, 'final': 3648})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=8.669999999996649e-06, vote_time=0.00023091199999999285, clustering_time=1.849333333333496e-05, intercompression_time=0.10006921999999997, space_samples=[('all-tracing', 3680), ('clustering', 49408), ('lead', 49392), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('lead', 49424), ('all-tracing', 49424), ('all-tracing', 49424), ('all-tracing', 49440), ('all-tracing', 49440), ('all-tracing', 49440), ('all-tracing', 49440), ('all-tracing', 49440), ('all-tracing', 49440), ('final', 49440)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.0879999999945387e-05, vote_time=0.35028614399999997, clustering_time=1.8088000000001606e-05, intercompression_time=5.1228000000039416e-05, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('final', 6240)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.0879999999945387e-05, vote_time=0.35030788933333334, clustering_time=1.768266666666825e-05, intercompression_time=0.0, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 6208), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('final', 6240)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.2240000000022285e-05, vote_time=0.05027947200000001, clustering_time=1.768266666666825e-05, intercompression_time=2.177333333334714e-05, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('all-tracing', 3632), ('all-tracing', 3632), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('final', 3648)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.050312536000000005, clustering_time=1.5777333333334698e-05, intercompression_time=2.369866666663764e-05, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('final', 4512)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.3759999999974904e-05, vote_time=0.05027939200000003, clustering_time=1.7277333333334897e-05, intercompression_time=6.277333333345146e-06, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 7072), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('final', 7104)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.3759999999974904e-05, vote_time=0.05029386266666672, clustering_time=1.6872000000001542e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 7072), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('final', 7104)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.050247200000000034, clustering_time=1.768266666666825e-05, intercompression_time=4.069333333315585e-06, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('final', 4512)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.05029520000000005, clustering_time=1.4682666666667853e-05, intercompression_time=0.0, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 4480), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('final', 4512)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.3759999999974904e-05, vote_time=0.05026544000000006, clustering_time=1.6182666666668052e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 7072), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('final', 7104)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.3759999999974904e-05, vote_time=0.050271925333333384, clustering_time=1.5777333333334698e-05, intercompression_time=0.0, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 7072), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('final', 7104)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5120000000013638e-05, vote_time=0.050247200000000034, clustering_time=1.768266666666825e-05, intercompression_time=0.0, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 4480), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('final', 4512)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.0879999999945387e-05, vote_time=0.05024984533333336, clustering_time=1.7277333333334897e-05, intercompression_time=5.306666666656402e-06, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('final', 6240)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=2.0879999999945387e-05, vote_time=0.050256330666666696, clustering_time=1.6872000000001542e-05, intercompression_time=0.0, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 6208), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('final', 6240)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.2240000000022285e-05, vote_time=0.05024912000000006, clustering_time=1.768266666666825e-05, intercompression_time=3.269333333359801e-06, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('all-tracing', 3632), ('all-tracing', 3632), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('final', 3648)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': '6520a386f5d84305ae9c86085dda3ae2',
        'leads': [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15],
        'failed_ranks': [12],
        'fault_summary': [('compute', 0), ('crash', 1), ('delay', 0), ('drop', 0), ('dup', 0), ('failed_ranks', 1), ('lost', 0), ('timeout', 42)],
        'trace': (
            'c-qBW+iu%95Pk1g2-sJ}<&cy_y6DFQsj(;!B!#ovmreccOI_@UvMkP#IF1dcF4G<zYBV!vhLrw#d'
            'wP6+{O9=ibSQpP@$&2V`t<gl>f-hI^Y5Q8-&IMaE=_66s;tYVbfqsT3{pwDBvX<tsrvH#`ueNT#e'
            'ZLl;_$n8JG}fT-c&)wuAqH*e^p;8ymk1yD)fnzwrZ#PKl`8UXghMELcfRKDMh}i$*J>;-u=!QWe*'
            'Rk3SYe;d-<L6-KbW3JtjaP0Ubud&z``?CkE9Zs0kzHWR^h<2x`NKJ=tYYi=Kbgk9D836)NYQwj(Q'
            'aquN_fdi?#v7WQ51m`DW^=`ICD?Pqz8H4Lr$vG%hJ-N4YM8#C=^8QOKwb|2oKYZ(s{VOxe2jLkL;'
            '5sb~Y4e4xdWBmE$Mh2n8s5e(;A|vNPWaV6lDhVHYe11M2e*7Eq)f@HxzZ*bZ_|NX-!nYPWyk{W(O'
            'mfxn@D%7$>+KJ;*ZYSt(_LZ4U^!FNa9qbaZXz=cSe}KINJu@FRxGSU9vZNScW(0sx#9Sld3=V?42'
            'Xt_$ncZ_(J~R?9MeQ0(tKWy;S<4g3?CcMF??)>Z3b&sG9EED1J^m~?9S0-cMg}&Ip&jxS(!X0g^r'
            '2RTu>7CFLl@yuwsV|i<LWUSghdT+d;hK0jS_b4*-srJpedA@O2W!?%n>uMxNZk-$4r)#U;RwcZRr'
            '-?0{!97ji{elfgLz3L6POAuH)9RLOYCe1_^!x7RoIG=(;05IV~xPGj8IrQ+OV%_ukN#TqAlY^cmh'
            '!$Fl!8V)LU7$;h~-r-PyOCAm=T=j53;T&V8!Sfy#h-)vRsCF0#u%qqG^q}}NWCu&XiZh%gIh^?+S'
            'gj%r=V1<MekP_>q~YRnO9c8z@IIN~S><KkSky?wB9}E5&1dleYkR4wW64n>rKWF2rKXwW^ST+uz8'
            'm>`IQ?pRrg|DTq{K~kfM>*0364n;s)P9?S=!?)Ws)SJs+v!dr)U(DB&3hh7mrkOwzv!NQ}bDSF{a'
            '1P%+(6Qu&!eeW~b$P1z}h-G6=I%a<hUk+=#EDY!6;<d0X)a6}%abpyTa$1Rd5)TcXmfo(I!5q($R'
            'Woj)#-5e-aD{=h_5G%~sTk%=mq&~&58RO&41w2sKO`^MTmV|<C~lpnR6nu$bh{HWzrElN~7HN}X_'
            'N}USM4HBz7x{zW8=|ZxVM;FqrAYDkn^5{Y;mU(?iOIg(4a6QYNC@gAW>aeoqQitU&OdZy^T<WmUg'
            '{i~cSDLoW?&}$6(d{F(nA0=PO<3+k;YKV>9qz?)spI`vm^<8(<#NZ{vM_hJ%GjDUGIVDrHHTmVsf'
            '7{<8Tky-2xSnm@+rg#r4XtFbI5#IGQ!?on^X~PTRNa~zJ4V<t|9mwAg#}bg)})I7TTo+7(#lN7D5'
            'HyrG<dQyR;B+Si`Alj_vX9DBoO^i@|ForQ8_PgGC!c7}jeH!njmJ7{e-!!59~42xEMIT$Zr3wHIt'
            '80~1-v$V8P)XquM>J?!><adf4V!aVMB=TGv;(5AQ~8nh=ai3T;x(&t!uM;wCz++Jc}!hIhGCf<;_'
            's+jL}_Ai~1Gy}Yak;cSZ3u#Qa<j;TYZ@AYds~a=|Zs2md!HuP^D$gxHHeQ!&pNH@XTe0Zs)~GX+m'
            '8)FPyr4BM4pr>lB!nuozQv)6-S31@h1Rw>RIy~uxuT@kwJ`6(SG9PPgx9n{+PLIk(T3NvK-##fVb'
            'O-yvOwCfaPn7b;2w?;OD7fwSUj;%Vfn;D#Rb&1c$8~%mRLlpMIsUz>5$Zjge0=kG0BO<B&x)M(hV'
            '6q03%8^{g|%dAuTufj-+JoW4a1H)0qCHeb)?e>by$ng0k(zYwv4{Y~_c4YaCIlY3pw~9KHG$+>R0'
            't@Jdm;NXM)Br=H@KLcS=yWn_aRUxe8*vRz@QI0E(Ns%@}NeKF768nU~XD+-OSzk@gRaIZA0D84Mu'
            'x?Y1H#erq~W(|Jiugmx|&-%(?HMh-behn+YYI9Hj%4)W`M}TFu8)*@D+vsg%gx!s-u)k3y=5RM33'
            '^vM-qXanv^XGr9tuxv'
        ),
    },
    'crash-rank0-bt-P16': {
        'tracer_stats': [
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.00046548000000008646, merge_time=0.0029977946666666757, merge_comm_time=0.0014965946666666767, peak_bytes=12288, bytes_by_state={'all-tracing': 56112, 'clustering': 6224, 'lead': 87120, 'final': 6240})",
            "TracerStats(events_recorded=261, events_skipped=435, record_time=0.00020163000000004402, merge_time=0.0014780400000000068, merge_comm_time=3.324000000000729e-05, peak_bytes=12272, bytes_by_state={'all-tracing': 49760, 'clustering': 6224, 'lead': 0, 'final': 6224})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=5.9229333333338414e-05, merge_comm_time=3.762933333333789e-05, peak_bytes=7104, bytes_by_state={'all-tracing': 32784, 'clustering': 3632, 'lead': 50832, 'final': 3648})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667600000000416, merge_time=0.00029219733333361517, merge_comm_time=0.00028499733333361586, peak_bytes=8832, bytes_by_state={'all-tracing': 40560, 'clustering': 4496, 'lead': 62928, 'final': 4512})",
            "TracerStats(events_recorded=792, events_skipped=0, record_time=0.0005850000000000122, merge_time=1.8706666666669196e-05, merge_comm_time=1.5106666666669759e-05, peak_bytes=14016, bytes_by_state={'all-tracing': 63888, 'clustering': 7088, 'lead': 99216, 'final': 7104})",
            "TracerStats(events_recorded=297, events_skipped=495, record_time=0.00025515000000002434, merge_time=1.7946666666667638e-05, merge_comm_time=1.43466666666682e-05, peak_bytes=14000, bytes_by_state={'all-tracing': 56672, 'clustering': 7088, 'lead': 0, 'final': 7088})",
            "TracerStats(events_recorded=504, events_skipped=0, record_time=0.0002667600000000416, merge_time=1.588533333333423e-05, merge_comm_time=1.2285333333334793e-05, peak_bytes=8832, bytes_by_state={'all-tracing': 40560, 'clustering': 4496, 'lead': 62928, 'final': 4512})",
            "TracerStats(events_recorded=189, events_skipped=315, record_time=0.00011331000000002264, merge_time=1.919999999999006e-06, merge_comm_time=1.919999999999006e-06, peak_bytes=8816, bytes_by_state={'all-tracing': 35936, 'clustering': 4496, 'lead': 0, 'final': 4496})",
            "TracerStats(events_recorded=297, events_skipped=495, record_time=0.00025515000000002434, merge_time=2.783999999998732e-06, merge_comm_time=2.783999999998732e-06, peak_bytes=14000, bytes_by_state={'all-tracing': 56672, 'clustering': 7088, 'lead': 0, 'final': 7088})",
            "TracerStats(events_recorded=297, events_skipped=495, record_time=0.00025515000000002434, merge_time=2.783999999998732e-06, merge_comm_time=2.783999999998732e-06, peak_bytes=14000, bytes_by_state={'all-tracing': 56672, 'clustering': 7088, 'lead': 0, 'final': 7088})",
            "TracerStats(events_recorded=189, events_skipped=315, record_time=0.00011331000000002264, merge_time=1.919999999999006e-06, merge_comm_time=1.919999999999006e-06, peak_bytes=8816, bytes_by_state={'all-tracing': 35936, 'clustering': 4496, 'lead': 0, 'final': 4496})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=3.2693333333320453e-06, merge_comm_time=3.2693333333320453e-06, peak_bytes=7104, bytes_by_state={'all-tracing': 32784, 'clustering': 3632, 'lead': 50832, 'final': 3648})",
            "TracerStats(events_recorded=696, events_skipped=0, record_time=0.00046548000000008646, merge_time=5.151999999998286e-06, merge_comm_time=5.151999999998286e-06, peak_bytes=12288, bytes_by_state={'all-tracing': 56112, 'clustering': 6224, 'lead': 87120, 'final': 6240})",
            "TracerStats(events_recorded=261, events_skipped=435, record_time=0.00020163000000004402, merge_time=2.496000000001136e-06, merge_comm_time=2.496000000001136e-06, peak_bytes=12272, bytes_by_state={'all-tracing': 49760, 'clustering': 6224, 'lead': 0, 'final': 6224})",
            "TracerStats(events_recorded=408, events_skipped=0, record_time=0.00018755999999996777, merge_time=3.2693333333320453e-06, merge_comm_time=3.2693333333320453e-06, peak_bytes=7104, bytes_by_state={'all-tracing': 32784, 'clustering': 3632, 'lead': 50832, 'final': 3648})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.3920000000000599e-05, vote_time=0.00021715999999998362, clustering_time=1.8088000000001606e-05, intercompression_time=0.0029977946666666757, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('all-tracing', 6224), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('final', 6240)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.3920000000000599e-05, vote_time=0.00022323999999997873, clustering_time=1.768266666666825e-05, intercompression_time=0.0014780400000000068, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 6208), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('final', 6224)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=8.159999999997943e-06, vote_time=0.00022863999999998136, clustering_time=1.768266666666825e-05, intercompression_time=5.9229333333338414e-05, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('all-tracing', 3632), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('final', 3648)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.0080000000001936e-05, vote_time=0.00025541999999997497, clustering_time=1.5777333333334698e-05, intercompression_time=0.00029219733333361517, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('all-tracing', 4496), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('final', 4512)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5839999999994183e-05, vote_time=0.0002275199999999802, clustering_time=1.7277333333334897e-05, intercompression_time=1.8706666666669196e-05, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 7072), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('lead', 7088), ('all-tracing', 7088), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('all-tracing', 7104), ('final', 7104)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5839999999994183e-05, vote_time=0.00023359999999997532, clustering_time=1.6872000000001542e-05, intercompression_time=1.7946666666667638e-05, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 7072), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('final', 7088)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.0080000000001936e-05, vote_time=0.0002268399999999773, clustering_time=1.768266666666825e-05, intercompression_time=1.588533333333423e-05, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 4480), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('lead', 4496), ('all-tracing', 4496), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('all-tracing', 4512), ('final', 4512)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.0080000000001936e-05, vote_time=0.0002718399999999824, clustering_time=1.4682666666667853e-05, intercompression_time=1.919999999999006e-06, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 4480), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('final', 4496)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5839999999994183e-05, vote_time=0.00024393999999998764, clustering_time=1.6182666666668052e-05, intercompression_time=2.783999999998732e-06, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 7072), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('final', 7088)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.5839999999994183e-05, vote_time=0.00025001999999998276, clustering_time=1.5777333333334698e-05, intercompression_time=2.783999999998732e-06, space_samples=[('all-tracing', 7072), ('clustering', 7088), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 7072), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('all-tracing', 7088), ('final', 7088)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.0080000000001936e-05, vote_time=0.0002268399999999773, clustering_time=1.768266666666825e-05, intercompression_time=1.919999999999006e-06, space_samples=[('all-tracing', 4480), ('clustering', 4496), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 4480), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('all-tracing', 4496), ('final', 4496)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=8.159999999997943e-06, vote_time=0.00025721999999997903, clustering_time=1.5777333333334698e-05, intercompression_time=3.2693333333320453e-06, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('all-tracing', 3632), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('final', 3648)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.3920000000000599e-05, vote_time=0.00022931999999997385, clustering_time=1.7277333333334897e-05, intercompression_time=5.151999999998286e-06, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 6208), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('lead', 6224), ('all-tracing', 6224), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('all-tracing', 6240), ('final', 6240)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=1.3920000000000599e-05, vote_time=0.00023539999999996897, clustering_time=1.6872000000001542e-05, intercompression_time=2.496000000001136e-06, space_samples=[('all-tracing', 6208), ('clustering', 6224), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('lead', 0), ('all-tracing', 0), ('all-tracing', 6208), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('all-tracing', 6224), ('final', 6224)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=24, effective_calls=24, state_counts=Counter({'lead': 14, 'all-tracing': 9, 'clustering': 1}), reclusterings=1, signature_time=8.159999999997943e-06, vote_time=0.00022863999999998136, clustering_time=1.768266666666825e-05, intercompression_time=3.2693333333320453e-06, space_samples=[('all-tracing', 3616), ('clustering', 3632), ('lead', 3616), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('lead', 3632), ('all-tracing', 3632), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('all-tracing', 3648), ('final', 3648)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': 'dcdfd750827ae377b9d63333a758d082',
        'leads': [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        'failed_ranks': [0],
        'fault_summary': [('compute', 0), ('crash', 1), ('delay', 0), ('drop', 0), ('dup', 0), ('failed_ranks', 1), ('lost', 0), ('timeout', 0)],
        'trace': (
            'c-qaK-EP}B5QXpi6bAOzNi{=Kq`c_E1Zl7+5Hv-y+ndei*;kGt+O&Q+XH42jkrq(X(Ki-3b2J>Xf'
            '4tn^J>LEOe0Tq_`AwUjzn-7&U%pYhd3yfw*N>myXv<r(wOhAsw|*P8-Ikgy(Uy2iW=nQU?#tuT)2'
            '|Kl=HD-y&BO1_%frv_o0n!oo7)ZTct>BGuhjqQf1<z8|KJ-nY@6F=_;dLE{qp|O+x{nB`@ik4y1-'
            '4_j9>1xyA7eS@j~YwZu+bHpKYiO)^+CN%eVHGo1OoYY1ae3V?96I_iWS?+|aJs-6U8aV0)<k*A(X'
            'Py<<LhlW{k>ztsP}Y<VCxQqruwfz;xproUv~Opeq^Nwf9_(iSJR{U!TmbEIBMDzq2Gqp2C7-@nHJ'
            '-r9aRxArichoQ`!?TEVZt3A5P<Ij@m2RNU6Zk=Mv&2TMxOO4#!_vzEn{yX=$i8S1z8+>rHoSTPx?'
            'Z30!M#C+-!3VdMbDMXwX8)b#b{cNv2EzolJGZmv48-CSguDg}8OlL(17yr~nj46o-7x03DHzh|%;'
            '&{aIifLFiD+ypM>MuoA{x8O5slj_5siJdh<5k*`26twpI#lm@G!X}ZRr1fcnc}`)XaaU`Zy7yJoz'
            'Ndsu1n*P3L;4`|-6dimfHK?eOIr>lZ|^k+KM-tCQLj3QRAxhsid<XJ0ofrLszbqfk8(vkFlnF{{x'
            'GK22=q(`W_=Orsf~8)!5GbOVKEC^Dbu%-O_TWj3*`GMmPPSZp@U=POezU$qlZpUYR=wH<#Xp_a^Q'
            '!ZMaUja8gJXRRl!JPekw^7gQVmA8i_EWw9=$%G}rQ6wyhSw+H<m_>r#KC0f>o!Q;k0?*{!EH$Q2q'
            'BO|+Qm;y;k^75eKd%A@hLs^XIFeO^3LF@?hUMUh(&|*;3O!IHT$R!Tg@YB_D#2>h1I2>XydLny^Z'
            '?oEtGvrA0zOg%>#wlJgd;@|!nz`m;9#0SVi8jX5{sBF5IuxTDgzmiLL0~oE7XC^utFd7QT8-^U+3'
            'A330wxGNU$=)iUcS#tVmFW=1r*-ReaX4tu$-KG*xicEEHNDo~itNBLcZt9QOMQcH?K&j*t1u4^Ob'
            '|sO2y|!M0sUSMyi**=jCrn!^X@2T%7rqjx6^M{fGL<^#EFWA0lpo95CSW5!t8b|7aQv*{|M6EbFu'
            'r40vi#xXyyGI}AS$XJjLoFrZiLzw$mWx^qq*rm|49I^adqX96brc_IgMh%ho^f(l*KH%75fDj9;p'
            'NNw@@o|h@CpHRVf%OyBlP5k7-s{9pK`gL-BBz>z7P!LrKao;-81W#ADk^VN{FtMF%G;Dbh~^UoBB'
            'q*=h`D?uVpB5`u`M5o*wu_gQArkzM6n&9a3orgsC%oULOmj$*jSgRCPC$^iqq3a!Fp*bbqf-v>wJ'
            '(bmGVKNbe#{9q*6XekgoGVax^nkE+|ID6G$ONb6(;?R8EV_&>Sr;Lglo$1kKUn0#r^bw>_?}wL7a'
            'FWyME+TsxCP$p>nHZOeyM2iwNw>GcB>Q@zN<TsktbsTY~pmX1v9>P4m~NsC3MC`gM&rg=Ham>ON$'
            'w$-Mcv<}&}Wm+4T>^Rf!<BWH4b<eMF+L{)d-Fcg~04K3cTX|A&(-uIAZQ9C{f}6GgQf$*!o)lX&6'
            '^y1!ZrVa7oMzLO#9hs%Er?sO;w$0SY}$gj6${D|Zq24Gh+DH>Jy~mY*X(EO(jFyOx}8npuBM$0;?'
            '^v-3%E7iY!J6*EnmQ`X=a1C6|DkAvPH4|aJ7;JbCqPlrgE}iTP0brtDG#xSB=8SBED~wPZskp9p`'
            'juq^0L(vJ61W#plB1ZzE(7)vBG)n5eMqg~p)LZT6$Sz)EVYu;yX#I%wV|UaidAgqO7aWO0@*UaLC'
            'nA8<)c?j7aqYSk#V@}A1;lU@M~FUIGA<weh+0ESok^T6_wcc%cx>$IOC3Ne?DLTt-Np;(zL5``9)'
            'v#Cr0(WTPEA_YWG){JL4al5|5y))LtW1o0ZKuimM02ElD11y6DHNbMV0G5`VkVkZpt=6OgL*CAf<'
            '_5@XwA0)`QKe}nuhI6JRhp2#ecRGi8i~7_Dh<S~sM1KdHB}mjTT!KvaBHeG5I6F|OI1SJ+4UMzIi'
            'Rtt9MEDVp?pA_mmjv+evjJ&@%}>lestxAX&##nDug~XrtinXI1(5wEHKSfH*Sy0JcGjrs_5t`$+6'
            'EgCu&efqq12tpHxGH%vqzUTtb<nW?E-<5OdaOD#TFcsK(ZrJ;W?D8n6MEhQeV2wA2}LV}Rp;zhk8'
            'zW2c>$GjNN3kM$(6<4Lex9|uvM;vR_Zl2)(89wgB`<AG6oAi7IhD-(N=q>GFPPVIr{E~(1CJ(5A!'
            'o<31)-|lR^`7;V`vFFJA@oEo%`7=syu?NWf32G03`7?@eu?NWf>C_$|^QZZI>4)hO`G>h){$X>8{'
            'KK|h{$Y2C{4-WbYviB!K2$0H%)b;Jtj9N_V;82jGPPN<C+DOZsJ+v5A)Y^)In6C}@o!A#NPe20fk'
            ')=N{!YkGtiw}63zm=}TCB@cLJO9qAzG}{Q$h<KkRusem+bb$W}v3uQ|7X!;}c}pobn@L*K~b??3#'
            'mwMC_W*Pmo=)s?bf(*)i8Vsz}76D9elND$3>}yP9)~%7m|C?T7WE7jvcP#in}nVp}PCv8x`vVrN0'
            '==ylkOUm<!ebTFKC+VP1}HYd~!{r^?2YyH^A;QV>#9G*y91Pm3Th;39hBDTSP2JB&7w4(t;)ATfe'
            'x6pJofVWU6kTA`ld`$%+;!!9NkzIuX5!ux&te2i!#g^9V%`A4+XVxJ*R+w1}*^!H_uy@IB=5XO7Y'
            'tnouWq}Tdks5_gbdeg(^zx^vPy8q@(MwJ+l)UZRz_#Tb+77l2_xjt@{_JqYR)0?Vx<koM|E!;iMt'
            '?aj+~=RgRkZobap5liEUu!-Uydt3_JTfPbYfF4I<c!4ouX7I8lC1fLXd6&_#eL7JQM'
        ),
    },
    'drops-lu-P9': {
        'tracer_stats': [
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013305999999981114, merge_time=0.015909055999999727, merge_comm_time=0.0063942559999997095, peak_bytes=7744, bytes_by_state={'all-tracing': 531128, 'clustering': 200136, 'lead': 725272, 'final': 254800})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.00026074000000004714, merge_time=0.008571887999999694, merge_comm_time=0.0018674879999996952, peak_bytes=11200, bytes_by_state={'all-tracing': 22048, 'clustering': 11072, 'lead': 44480, 'final': 5536})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.0001330599999997834, merge_time=0.003920215999999949, merge_comm_time=0.0003574159999999438, peak_bytes=7744, bytes_by_state={'all-tracing': 15136, 'clustering': 7616, 'lead': 30624, 'final': 3808})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607399999999638, merge_time=0.004348242666666502, merge_comm_time=0.00035824266666653615, peak_bytes=11200, bytes_by_state={'all-tracing': 22048, 'clustering': 11072, 'lead': 44480, 'final': 5536})",
            "TracerStats(events_recorded=410, events_skipped=0, record_time=0.00043066000000001456, merge_time=1.9141333333250188e-05, merge_comm_time=1.9141333333250188e-05, peak_bytes=14656, bytes_by_state={'all-tracing': 28960, 'clustering': 14528, 'lead': 58304, 'final': 7264})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607399999999641, merge_time=1.510399999996026e-05, merge_comm_time=1.510399999996026e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 22048, 'clustering': 11072, 'lead': 44448, 'final': 5536})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013305999999978352, merge_time=1.1071999999945348e-05, merge_comm_time=1.1071999999945348e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 15136, 'clustering': 7600, 'lead': 30656, 'final': 3808})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0002607399999999641, merge_time=1.5109333333290786e-05, merge_comm_time=1.5109333333290786e-05, peak_bytes=11200, bytes_by_state={'all-tracing': 22048, 'clustering': 11072, 'lead': 44480, 'final': 5536})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00013305999999978026, merge_time=1.1077333333275874e-05, merge_comm_time=1.1077333333275874e-05, peak_bytes=7744, bytes_by_state={'all-tracing': 15136, 'clustering': 7616, 'lead': 30656, 'final': 3808})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=6.539999999943813e-06, vote_time=0.05208922133333321, clustering_time=0.000243058666666629, intercompression_time=0.016177855999999713, space_samples=[('all-tracing', 3840), ('clustering', 48480), ('lead', 48464), ('lead', 48496), ('lead', 110968), ('all-tracing', 107000), ('clustering', 151656), ('lead', 151624), ('lead', 151640), ('lead', 214080), ('all-tracing', 210128), ('all-tracing', 210160), ('final', 254800)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=9.419999999954465e-06, vote_time=0.05219304000000016, clustering_time=0.0001410186666665758, intercompression_time=0.008571887999999694, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('all-tracing', 5536), ('final', 5536)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=6.539999999943813e-06, vote_time=0.05220418400000021, clustering_time=0.0002402079999999085, intercompression_time=0.003920215999999949, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3792), ('lead', 7728), ('all-tracing', 3776), ('all-tracing', 3808), ('final', 3808)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=9.419999999954465e-06, vote_time=0.05210130400000024, clustering_time=4.0207999999902766e-05, intercompression_time=0.004348242666666502, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('all-tracing', 5536), ('final', 5536)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=1.2300000000103894e-05, vote_time=0.051799027999999914, clustering_time=0.00013801866666660056, intercompression_time=1.9141333333250188e-05, space_samples=[('all-tracing', 7232), ('clustering', 7264), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('clustering', 7264), ('lead', 7232), ('lead', 7264), ('lead', 14656), ('all-tracing', 7232), ('all-tracing', 7264), ('final', 7264)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=9.419999999954465e-06, vote_time=0.05180065066666681, clustering_time=0.00024101866666659255, intercompression_time=1.510399999996026e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5520), ('lead', 11184), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('all-tracing', 5536), ('final', 5536)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=6.539999999943813e-06, vote_time=0.05190798933333357, clustering_time=0.0002402079999999085, intercompression_time=1.1071999999945348e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3792), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('all-tracing', 3808), ('final', 3808)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=9.419999999954465e-06, vote_time=0.05168792800000019, clustering_time=0.00024101866666659255, intercompression_time=1.5109333333290786e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('all-tracing', 5536), ('final', 5536)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'lead': 6, 'all-tracing': 4, 'clustering': 2}), reclusterings=3, signature_time=6.539999999943813e-06, vote_time=0.05241734133333334, clustering_time=0.00013543733333329366, intercompression_time=1.1077333333275874e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('all-tracing', 3808), ('final', 3808)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': 'dc3d9ab28b680d26bc9625a0d95a962c',
        'leads': [0, 1, 2, 3, 4, 5, 6, 7, 8],
        'failed_ranks': [],
        'fault_summary': [('compute', 0), ('crash', 0), ('delay', 0), ('drop', 435), ('dup', 0), ('failed_ranks', 0), ('lost', 11), ('timeout', 51)],
        'trace': (
            'c-rk<+mhq95q+PpP*q;FW85#Zm5<ptQz=)u?9^=HmrU~Q0Y!iyAQEU$ASJI_JLBEaxG0`ROWl3YI'
            'Q^IJKY#o6+rK`({rrCVgPwl-=g03qfB&mJ{r>UGKYsb`ujEY6?99*NEYIq!&*tUV-+%w-iJkuQay'
            'q^Lar*xL+uu*$$%&p`PyEgO`HB2Q-5=(DCMWhkBgiWm{yTiTpXu-;9llQN)BT$e#s!hej1MK59G|'
            '9CNn%8Ngr~I>;b}$;{bclw&F_U??uEX&Kb3pA{3wR6@m}J0dPN3DM+bD&eMNMf(16ZJz66dKwT3w'
            'd$Kl|HTM^WKmB9%(I5vPA{@w|kgo7JyMGSwJ!6`U6K7ixyYbS6T4sN&=!QIyyxR3Xr-DQotVh(M*'
            ';&46p$NftW|J1`*`C8UpE5En=T9jYjyZrK9z8ocxdmB7dQ}?xOa-&p(&9#}C+}{NSp}M?hIUT+$s'
            '2Bv*;F@~)doNTRgzEBU<(Gd|PzeaC!6!9$UwfgFAXMYKba<PtzB#`A`s>I0-~a8x*>^g=|HFmmpZ'
            'D>q;|&U>2<JLH_!3B}m#|x@J{enjb)CGr8Q$doGx<v=0REdrS8to)o&IGo&X?3WEU``!&YV+o8y?'
            '&+uHL_p%VMnl>WzM-{EaTfb(uH^1IG2_^ONbO4^VpTAr@u@VBBMHX!`~A5g8*eWWb;&;K=ri=pGq'
            '`A*)8bG@JvF?HA7H!B=J<nyfMSdRH8M@!C$y$gZMr{|{pVL6?Q^Rdl=w-BmR1kB&jmWnp|3ooGUL'
            '6_xv=6A*M+IA294o6ucF=Z@%>!#b;k^<7?GCojJ}uCoEhmm&4~k}j4?vz~cq?Gx8SjjWS&O95)+{'
            'vkrcjF1K4HIL<RWLcunADMw6%YyJ4G6_ePB?|qKSs1b`2(Ka2aAaAc&>h)W2kWc~QSEiG_r@`SzB'
            'bhoxIA6hs~)bQ1JuJF9c@9kd$rF&=m2%GN5@*w?Oydu5IR78?9uTSbo*8R%VAyJH>|5JVV&ilj<O'
            'WinIYk!m{xQa)|Y>kg!Pmt5P7*J*NK9HkA&*qB)O#AQvLVJ5^6TBW(g^mP%~5`mjE!-?p%U_8LFC'
            'eq|`*sP>s|Cz)&@6LbMo4%GDgEW~gcolQJDOLp3rT07KQ74%T8Q&R3WY^H#DFl<A21P-b>{Y(A9p'
            'F4?L{81GWq{iv7>NT0+c3u3bUlB}G}0hz3IYo%f`ASV+uH;Bph%iMB?2xPL>eVdBOfJ9GB2O%cgF'
            'CENjCy>cDZwkr#rkS$Kt`Ny14lV5p-Iivid7(&LkM5rr%GG8MmefUbQ?o~!8rIC(m>L3XRZR_5Q_'
            '8d2I|8s(6<nGf)@;?79Rh51R4WR=R#k9mf>^UvV}b~<)lr=-09!S6wumgU(HlBj*jvfy4UAsQ8MB'
            '3?_uZ?j7^|9WCJbTCT407Sri&nJ9k%yZu~s$DOc=+SwZM#H%oIV^I&3eoVy$Y5nJ}0&Yk?Wem?VO'
            '%b^P8Wy>E6&yO5YPr$<DI#FRAbKWa^^WV7sY`Bw!Jljng_+(csP#EHeRBxahd%H%B|Zb()GEm~Wp'
            'Mq0FH`o`QBVEUu_rU9mh=Dr4I`bMI)X8Oid8esaPQfYwcp{cZmnZA*_t(m?tGY6RdsLUK-`lifWz'
            'm@FXmYK^pT3o{od+nKDi2HKOnOli2+;U|F+S2{n5^QJ)fGojrTs3G3TDj`V613G2wI$flwE$Uy<G'
            '63o60~yPl_h8^OlnK8p|t|C1jljdpe5MMrHlJkJEBXqL-LG*@7J=CmM1E4WxjuT!dJ@^k-QOjhw`'
            'LmR$y-@gWIZFPqZ0JuND*lV>K2OHDdwWMFregM^yj-TQybyHCq82P!-%()ou&f)NWx{b9R8SnsRp'
            'aR<cxE&MvZ0$#2iuvz6p`>5nB4OSR?JHB)WKts$n`z1fyQOx2bH*G#n`2Zoqx_s(4bF;!cxS~Jy#'
            'Toq!fquYS_eRE3QC8v~mj57P3?nxPRofBH7kwH(hxEheXTU!G=U4zw_Z`EM!-iS(Iuo_dN8mvkpb'
            'MwbuU{!0dfUIiF6f$52lqvK&-k+0u89K9-+{<G;1mto283-jjlVL3=kE5tSDB(#6Z$Wt+3j{*BnF'
            'TWUjo7A3#1{ESr#|Z7j><nQ^`<@Vz~q=DP1Ku?_ik=FOp}M2O&fQpYlZ^uP;<DUjyf$|GgRY#a?M'
            'b{{bUI@)KQ0zYldpv{jC`an5SsCp=xKDZ%r&muExC4qLnsqHJRo0efL+hh0{0guTqfJHqbT@s~wl'
            'pfvg7K66GMPZD4R9Ry!_51X&Hfizz`?+d$?(tae<=39{PelvCd~<<uKf&fA4k4L6)<d3kWfsE5mp'
            'pe(?${#iw=t7Pf$Al8LoSJBe1Of0LyJfd>yRGfp>ZFu_6B%OLYx<}Sdy&WBjr?!fx-eU6yR!{8!>'
            'k;KsJHUD*{Zz$;gfpy{ryoy2b%Z5dJZ0+gkTWubQ>yv+V3v4kQ_ihhC;u!P$q*N1chgku;5Cn`sd'
            '_uKhZR-r0PRs#Rd0v($g-*(-foYqtJ(qHBMYl`fcMDCs<*)FA+6f$^?PfpwurEeumn}wpH(!{%Bi'
            '1^X&R0&8chN@%UoGKJ<G01*oT#5>kx*XM3b$9rJh8Tt%IeWM3t>qru2ZaY`3#L&!@}Q!Dde<%+|q'
            'XPp8b*!DbIB&DKBrJYJjaa-&i+hijyesHM7?d<vJI8teHcB2<}gx?Qd9cJFy2xwd{AR!^YU)^Gpo'
            '2?X2vZKt7P+dXN(=a6jcMk_vtW?MI!@;OA?`qQ5D&WY#ovTdIB<XUK-VG7GX>8oH<&MCEJ^8E`5y'
            'SmIu?rBeBDL0=~51A+XlPJ0MOJq^X?S6SNYPsDn%|<b|`(^E@=5|j?8s*%!$+`8UxKYn-o1R-w${'
            'YpVwh6lRq~IS((XD?abiAZnX!$hK_?Azmt#YN%tlg73*ff?xf?F*-Vb7>k+?PVT$-MQeU7kSatzW'
            'V61Uhg1s)HvGdh3_YqtM%t>HM=Py>+ACpFrxZ8~6SMT5tV{cYfz|^LVwl@z9VEEC{<9X6Yo4AvG0'
            'a7OI$*6Z1YujE0sE_y72w5B6tJfa`Z&>9Hi>`W;q!EDgARCzT#h1n#CYihm**xSqV*1M9%`q_!Sd'
            '2(Bl4^hio@{loe3QgA+;&yEj?LBxr^&YCwh;e<!_h$qK~3==tf^x*Pv{SFcR==yN|4iWw60&)Eg5'
            '&h^2akpFQktO1KZrVPPMqJN)?}<d>dghN$q!QONAAKa5xc>PlTqo`-34ML@4Aohj<yoK2Nlq7#^B'
            'i={Dya~fhCN9k!x<uCZQzrX<v{{nQun|6Gele(I`K(-%tEhn&~P*K%!b=JiRo6v+`i$6k~5_Bo2i'
            '<!39hp@8K&iUb!4t78_<8fl-O6hrsHdp^YEG%Bb-#`8ftC^zebiQ6^=&@d$Yv_<xEg#HviD{vY>L'
            'ZL7F(n`*C;UaHscjZHL(cizSOXzkmH{@O}T*J~z;Gi&_16HF|M7n%y3qUyn9=`MUGZTqWf66~B!s'
            'eQ9Y{fAuE5rY{?E|DuP+G<|Vp(hX>k-$fYSJjz-kiGQaFx#5FEy<AlwRhO#(%S}{sxl)0&SRPeeE'
            '?#dRmop%ji?vZ7mkUKy(dA;jQ*b%a;&Ktj9xf-LE>{7To2ce;rAl+L&aAjxyxu-8XF)C(i_A_gM*'
            '%Ju3&(=XsTP-uF#5XOLWv!hbzInhi_US;4A(45>m~m^YquCFDmlMipT!wFFv8NLCJivuyz*5UjG0'
            'Zw+I)Vk0Auc5^P*K|7n3i`8!>YOn+*nzW&U_~bI;FBJi{tCIL^W*3>~b_=Jylp{PBL`TO$9+O6?^'
            'Ing9Blv#*y_Kkp@}E_$rn)h1t)dAdWF93=T1NQ?7Q!ZWjA@-aPrNVjq&OH9f7yE?tglHbt=zl-Mf'
            'ekTo+g82s#y!``9zASJgb(gzZgWFw>!CWqK9-Ul{16*!SY?NG%H@aMzXIf&JN-j6Q%aY5n2A7NG-'
            'o@nv+~uy;;C7c2Fqeyb(XB4GsFN6%lr5xuDLvFP>nrUM@_d^?)%OS`nR><*D~bv;Ht78OEkZN!Bw'
            '5E#TK(&UCRBIb)2kT<*bdI&&<@*#t3d-cZ%a6|!*<PT(15Mh8V>ECZ7!WL=<4=uuFO{IKF!P&1aH'
            'H36a?P>{l^>xZ^O0`1m6BF!x98<!}bmY-r-%o>dxCRYWp_K#h&w=Ql&X%jPrDLi=*l3w91`F_;?r'
            'Uj{JVjAThp|GHf`kgE-_GtQgx1up}JTK|Ey*R*dTaZVdn{qmp{ViZQ)}X&%!-j8<l)C1kURz6-Kh'
            'JTF0OCQTsFVl>|e8V5mZF3us)VkF-Onq1^-RmRuO<M<+9dtK~<*pYJjv(!vdVn?pZ=#>TFOYDfc@'
            'FUlI2-n;|*KMoF6a;=`ovK+_ha0&6m5E7_BJn1%^T=!`gWIudqsbc=d2uuG;(z=0@$t+1hg%_0yr'
            '1b7(wmvBwtZP2$+U36kXn^4*m(}3QJN5`Mv{%HFpG&=Mx;OMp?wpK;m($ljJD*Keh%#&Uzx!%h&T'
            'oj#~|VuL>z;NV-Rr+;`I&zlf)%z{@5|MCd63xoS%)Tv<trDP7`B<OJ>6JO8Q~L3dbPg7(^U{h+`0'
            'O3?hy}#4(7+jzMhhQ5ZT`OxTSO;WP)agY1ZZGMw;GR1z{h=}KybjS1M8fQ<>*n1GE5*qDHg3B4N='
            'x{f>6OiFEh^bThs-ThAWI}2^AF3=CNKEhE^?aTTVsS=!bjPs6h-Z9QQ#(Bp$?-=JD<Gf>>cZ~Cnu'
            'NfX;-8TyzK!%6>lM<~$PO7|AiICQE5hP3ofsRZ5sd3sdPCLeF$2jd6ryb+8W1M!3(~fc4F-|+KO*'
            '>Z13On^Psc=MoCXuJPVWFpsS}6h_Dh=gj<`btK<FsR(c8t@GaoRCXJH~0pIPDmx9pkiPoOX=Ujvs'
            'Q`G1H7$6Ph~oM8MAuaBwaC!45&SvOz+e%gVtH9CeJNj&am6jylFs$2jU3M;+s+V;pt-?4yn~CrX8'
            'JhnCo&)Ilu`*`_hmStDw+2y&=|$ujAVgN|{~F%CM$LB}}g7zZ8WpyMM39S;YGCgR9W1C7^@4yox;'
            '3+6cH7{?srm}4AsjAM>*%rTBR#xch@=J-b(bKF@5mgtKHotJ^NDzHmTS}pxpUnxR?EGP@peu-dOt'
            ';*J*2rP=gq6jRCz@i8&ioia%2&@a5MzBc$M#~^YPl*ZwGDHhH%^TG22S3fu8R42$Mg>?@fJFsZRD'
            'eYVSX6*T1=zh6V4IcUI9J+E4H(mK9;PJoqVH03Vx}a3X%RYx8O?{(qBtCi!=X4Fio>Be9E!uCI2?'
            '+@p*S3h!_~y$h)Y04m@g!y_02?7YAWg2Lu}Z@qE!-5REI-#I8=v2bvRUqLv=V*heLHZREI-#xOL{'
            '!m_U4T#&lplHL;<$oiM9I;z{+Ccv7oHnfgR^I8=v2bvRUqLv=V*heLHZREI-#I8=v2bvRUqdq{OS'
            '!iBbmd%+H+{h12NH7EXAV<*+P>qgKb2ao!2s1JwwaHtQ5`f#WZhx%}+4~P12&#n(AxaG=EWno(Ai'
            'FjAUXrF|-kBl&-+Px!mpy@C3086|(3dEs6916stKpYChp+Fo8#2q0Jx8wOC6o^BCI24FOfjAV1Lx'
            'DIHh(m!m6o~r~1>&w!(APIlPo2eCp7q(B<a7Z!&p<;ttBg>dIC6g}@kw8qrvB`Z)r1rN{v}8k)8S'
            'x|PeG-%=9B6-{`CUqDgh05LeFftmy?+8L(GjEq;Qxt%myhOq5{t0H94hIj_lq71N7-N)BV!%HOYB'
            '+&5H$2D)S39w}D?ELy46Em65u*nv9u281M4nhVsj5$}tVU%9`W-xVv$<(|ftL!)$fMl0}`<zy35h'
            'zJFhz8yLF9lzzM#z4#o>Zja8dM;l#y-Sg?oRYG5J+L+JF!pp7x>P>u2Up6HEMGuWR`r^u@ThAcBi'
            '!i)-l(j?>-z_cVhEEaoa#em*U9JKwH&M;yO4ZR~ZB%i&c)fjG&VXDl7DjzsE>uuOmy5+t!R17Y%S'
            '9M_xSWK#Tm@KeqMFN<%FM+gv*L2`di%JX1-V?TFgv*%1-M+S8VfF`T3jx|=<9L|^>tj<abW{4I>$'
            'vbT(c;xm;Cpv-D0Gu<otSl7H90e2uqWiG{8{vvR7p=W;PiM^ZB&`jJbEsD^{6ZOuj7d!ORV8HW)b'
            '8_~YHpJwG?`46EGWI1BqPbg+7omc=4}yr1}%$Um}Ddx=8YzrN-yPmBp{(PPoBHu;*&(;d3xAj#)I'
            'TA7y;o|y%ckLmG4x|JwdqDj`@)#+W9{EjyGT{O4%J6DKE5md5Cn9tJkfhAuS2$H(XU9G|GF2`Ul7'
            'YUC}F2?~bH)l0UF2@^Pu1qp5QA{P5o8M*0<yeEuMRV`sasuvhS8H&)%L$mvMY8Btms`|Gj7!QEQo'
            'fWM>Y4SGwg-8>$Dk_PgN!RRsR<8FKcDPX+DS23TWV+I%yn-$H4DAvq5RhgNvQ6+qgS&GuoIlap&h'
            'mbSAz!Z+m>)>hwYiwpaHwAH5}SOn_N2M&(-alT$!!ZefpRw2;PRxC<wg$TaP&i-iA#h2)zBfg(V2'
            'yhRq!ayu%xO)txtC)b>r7i#_K_rAm{^80hIIeVuJ@PzQ=$B6{P~dTIATC#kKvBf(!YNR02L6dMlf'
            'AQHI-E5`N$ED48o5K&o!72`U9Tm!($xTM~&VoWb#n#XhyrIlG}3E3>7?}BU=&r8snSrZ7f7|r*A#'
            'zD}Ut8)mn7|Hj6CKm}?l@Ye{IKD{OURV1ddZe8GEVYu9=#i^BdSwCl5<Q|W1j+R#!ZkV2b>Avd1%'
            'V)0=V}(#;Rf=5WmZz;NW4kxJTlwK;N#iyHg8-c#?3^G|Lxny$1m?6ZiPhgex_SUZ)UdI_GNt-)4~'
            'NqYE`;m-|>fXIHgaGw}n5EZ<v;XTYt)9JU1nY%dB*meMp_f1|EgeWgZ2mAL8^woPLPY4{`b-PCtC'
            '=>4%bWVyyOulli!v<enRT5!yG!7++o7bxEAxst}({EyPzGeTbtEar7aMKE%<7IQkGrAMQQ+u(3Bm'
            '63(c!o{&*q^iH@pjSzvQVPlCcter=D`N?>pn#QgK>`K6{1nf${t_18#z^;T_x)M4LI+lbnYI$fbo'
            'W{v<V?%f1I058R*%L9P1#)02=D{9k9OH~*oN<gZj&a5@&N#*y$2j8{XB^{<<I0R<>F!Oq+;h_BxZ'
            'J(qR=Kn@3|OEm*{3dSEa8A-9B_;Sj&Z;-4midE$2i~^2OQ&oV;pcC8BaltP+^p@3j3Q%ia>Z;HKw'
            '9N)=4c3ZBI(%8=N@Y7>66<aAO>9jKhs_xG@el#^J^|+!%)&<8WgfZv6PejU^L|(@^nn>Q8h~p+es'
            'WGm`rwlk+A|rpjkJaIP`VHO9HdIM*2G8sl7JoNJ78jd8B=bI&!Fgi}pT5H=Ij_+qI=7)2u);}hR5'
            'MBv-4DEAoSP-7fwj6;oas4)&T#-YYI)Oi1)#*#29rS|*gnyBJoAqPJMa#N1uIL{d88RI--oM(*lj'
            'B%bZ&NIe&#yHRT2b^d8e|Q?iVE'
        ),
    },
    'drops-rare-lu-P9': {
        'tracer_stats': [
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.0001599999999998257, merge_time=0.012627757333333184, merge_comm_time=0.004975357333333166, peak_bytes=11168, bytes_by_state={'all-tracing': 636864, 'clustering': 616160, 'lead': 207896, 'final': 223104})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0003183999999997352, merge_time=0.006578191999999816, merge_comm_time=0.0009237919999998331, peak_bytes=16352, bytes_by_state={'all-tracing': 33344, 'clustering': 27808, 'lead': 22240, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00015999999999980957, merge_time=0.003681439999999897, merge_comm_time=0.0002626399999999182, peak_bytes=11168, bytes_by_state={'all-tracing': 22976, 'clustering': 19152, 'lead': 15328, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.000318399999999735, merge_time=0.0021370613333332594, merge_comm_time=0.00014026133333325946, peak_bytes=16352, bytes_by_state={'all-tracing': 33344, 'clustering': 27808, 'lead': 22240, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.0003183999999997521, merge_time=1.5109333333290786e-05, merge_comm_time=1.5109333333290786e-05, peak_bytes=16352, bytes_by_state={'all-tracing': 33344, 'clustering': 27808, 'lead': 22240, 'final': 0})",
            "TracerStats(events_recorded=218, events_skipped=0, record_time=0.00015999999999982605, merge_time=1.1071999999973103e-05, merge_comm_time=1.1071999999973103e-05, peak_bytes=11168, bytes_by_state={'all-tracing': 22976, 'clustering': 19152, 'lead': 15328, 'final': 0})",
            "TracerStats(events_recorded=314, events_skipped=0, record_time=0.00031839999999973517, merge_time=1.510399999996026e-05, merge_comm_time=1.510399999996026e-05, peak_bytes=16352, bytes_by_state={'all-tracing': 33344, 'clustering': 27792, 'lead': 22240, 'final': 0})",
        ],
        'chameleon_stats': [
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=6.53999999993644e-06, vote_time=0.050508933333333256, clustering_time=0.050260842666666396, intercompression_time=0.012889357333333143, space_samples=[('all-tracing', 3840), ('clustering', 48480), ('lead', 48464), ('lead', 48496), ('lead', 110936), ('all-tracing', 106968), ('clustering', 151640), ('all-tracing', 151608), ('clustering', 185208), ('all-tracing', 185336), ('all-tracing', 189112), ('clustering', 230832), ('final', 223104)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=9.41999999999046e-06, vote_time=0.05061516533333335, clustering_time=0.05025736266666634, intercompression_time=0.006578191999999816, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5664), ('all-tracing', 11168), ('clustering', 11200), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=6.53999999993644e-06, vote_time=0.05052226400000015, clustering_time=0.05025574133333298, intercompression_time=0.003681439999999897, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('all-tracing', 3776), ('clustering', 3808), ('all-tracing', 3936), ('all-tracing', 7712), ('clustering', 7728), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=9.41999999999046e-06, vote_time=0.050517192000000016, clustering_time=0.05025655199999966, intercompression_time=0.0021370613333332594, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5664), ('all-tracing', 11168), ('clustering', 11200), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=9.41999999999046e-06, vote_time=0.05061516533333335, clustering_time=0.05025736266666634, intercompression_time=1.5109333333290786e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5664), ('all-tracing', 11168), ('clustering', 11200), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=6.53999999993644e-06, vote_time=0.05062104800000014, clustering_time=0.05025614666666632, intercompression_time=1.1071999999973103e-05, space_samples=[('all-tracing', 3776), ('clustering', 3808), ('lead', 3776), ('lead', 3808), ('lead', 7744), ('all-tracing', 3776), ('clustering', 3808), ('all-tracing', 3776), ('clustering', 3808), ('all-tracing', 3936), ('all-tracing', 7712), ('clustering', 7728), ('final', 0)], k_used=9, num_callpaths=9)",
            "ChameleonStats(marker_invocations=12, effective_calls=12, state_counts=Counter({'all-tracing': 5, 'clustering': 4, 'lead': 3}), reclusterings=5, signature_time=9.41999999999046e-06, vote_time=0.05041188133333341, clustering_time=0.050258457333332986, intercompression_time=1.510399999996026e-05, space_samples=[('all-tracing', 5504), ('clustering', 5536), ('lead', 5504), ('lead', 5536), ('lead', 11200), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5504), ('clustering', 5536), ('all-tracing', 5664), ('all-tracing', 11168), ('clustering', 11184), ('final', 0)], k_used=9, num_callpaths=9)",
        ],
        'clocks_sha': '60c4b3400567949219cd9919474ed2d3',
        'leads': [0, 1, 2, 3, 5, 6, 7],
        'failed_ranks': [4, 8],
        'fault_summary': [('compute', 0), ('crash', 0), ('delay', 0), ('drop', 81), ('dup', 0), ('failed_ranks', 2), ('lost', 4), ('timeout', 10)],
        'trace': (
            'c-rk<+mhS35q+PpP*q-K8Fzqk<zt-9RBEfXc2nadFY)HvLyClOAqg}{km5)!kJlcKm&ECY)TbN3>'
            'A(E=<@;~n|Ml_xm-o|u=;`-=e*E#vkH0pjKR$l_$FINtm7M9Bo%vau<yoEe*}VPs#~=SZvD1IwPN'
            '(<(oPNCj{`b=la-yfpiC^1aU&&Y6{$lO-<i!4G1i6szzuoWld)j?VyRQ@b+5Vjn#s!he*q74%WlE'
            'JKM!1)~tfg?58UM-XmHA_#x3SP``zte++qa_o>c`@Khj(OfbhJZ9+b@TX6Y9|EX>^>=fsWB}IJ#~'
            'ug0^32bOMf!b?CZ3w?Zf3=(@3p?$0zj1xLp_biDoA3Y~_d>&7B@`!$E|<NcTRwx+#fjIF<8cfa;m'
            '`#0VFRd-+Mdo}I7;<3f|qWt#u<+tDI+ff1;TQ^5FZNH{%-p~@0Yvq}I7zG8Py1i{V?S5xaF$k(|Z'
            'tCvONmLD^ya1LqV^kc3>h^Z!x4&gj2?(lgPHNtMZG}pLQ1x%q?tMD@=J@{GZy)b}|92bFe$f5{z~'
            '0FJ$ai<`2Pl*xoa_E&1XGir0&41VBipIRrXH_@$D8h5{y!5xJ3#Pf6k!MBbZ_-9oprv1=3#+(f{@'
            'nEYTn#m?I79v7jhf^?2oSW8|7Cz729PnI~Xvwho7LL=o6HVr$_^{0x<M3IJ6A|dk>8f7&Ktq6L4t'
            'RsLo2D@n#H-!k}e?UKr8=&^8R|egKxy2PZ2Gz{70pr{maA)6hndc!bWF5_D3I-);l~FN)!_@OTlt'
            'QApkZ9)rM(g83{wQ3P)ko9j~_0YMi9^;vYX2;C?~&xTRphl-!(O-FZ@iSFAxUkA@$9^P38<V#1vz'
            'J%^lA^Y(oY@P6K(`6mdE(J)JH;926W`!si&rMnmhZYfr4WJnqv?v(QL6dN35n<RMyf-jtQ81o^rs'
            '2>c!cgC9eNL>Sj6{{^#KVN_x%AjpQ|MyautEHzAb5b}cz{Ps;H6XlYDsbq9Uw^_(6JJ9xe@@Eb6z'
            'S+mUHL;$?|}Xm!Qj)0+yqj4(_TXxUZQy)3IGuiR~=@e3Yr!&J4M~7!k^g?bAOBVtZIL5OLxq=Zgl'
            '3IbtgTCZLpZQ6-=jRmd4NOBKSxLe5f!g$016wl6Fgn5DAJBdk;8ELB*i09b0n)rXMC<SdmXGGW;x'
            'XQ{%n2f$K0l|9TgWhQ9Z!;zxM?s8{R6jxy)ze!jXCbJ%ru^F(I;+Pi1W|>8nHMwwH+5y?DbhRa8G'
            'hl(n@i&Og()_K4%|wySO4o8SHUpM@94my_EX@jQ*i07LZ1GBwd~hvER#_?{aonM)rJ{9wGbD&2n0'
            '#~xf+%OVfv_M$qKmeHgd8zv*Fug6Fjkf$E?-v*D`fy<WzmH+F=wnong}q~Zktp9#>%1#nPSdZg-j'
            '7(tQ=D`yogTCZg~ONs%XoLh{79PvE_wbQ${Z+?>XuiIg&11z*`Ym0@9hWR+e-I<-(k~z~w^68bRj'
            'DEeKYqsWFJPvUD>jKjy3jE<ZZH2(nggeX&A)RY0tjC7MAwGiNPuInyykkhOB_mGvu{^syC9TBV{%'
            '<3fo@RWv1YG?Ey?J%%~`qeMlM$B|O3s%Yw95{sQHnjvA8!FxcgAgs1VnsZZOjWlQbLjDV|{cgLe0'
            'k((oUjws!VbwKf`$9Smu>Edy8en@Uoo-;ZFRbI{Y+uOE0k+?5M>@dvMf6->Q-&|2=kiLEPF%419!'
            '(6fq|m&+n03z<qKPG{6q++GDC7J&A1v4+0P#U?i@<VH7H1$J7nIhmGcG7gByuiTu#W-ag6)nn#Ay'
            'x41*K*1j0?)Llbj0{Y_@>7V7tv0ajpb%!Q!gAcx=ies-!$5<`jIpO&np4qJpW+cgRuZ&sK`yoxm&'
            'PC^@?Vw|p|Vv2sa8(L%D&vpEI8R)sl5&Q`!ZqylcM-I4%+u?mxboUwqrQWe}-S=PRM!)?gg0mdp~'
            '?dqDcR2gd*QLN<aS$pJ3{+K<p1Y)W(cAc};0(K3t)pqPUV8Izvm9gNQsTQzch^aO|&?_LODr2iTQ'
            '!QYt5L4~FHJCq^Rq`sVQpQ2bY<KJ@ETrqWsAUQZ=^>5F0m)W!*B(Z(Md}=`LduoHwf){y0>f3vj&'
            'is*-$`nVt2tc2;;Lf{5i$c}3xNcH)>6PF0B+pEX#m7Ez6hULTH}iYJp^WM|L6KWv%Cl<oX@Zln7J'
            '*R>tTu_m~bw_OJMG}%Mt{0aXrX9c$cNA61qkF399!x)uZB%Ouc9g+}3nVz!&vH4*=(kTDW4JvlMW'
            '}n!_!XJx{#)(5-=4s&IWdXDQ(NvV>bIdpx<;sh*sr3Ri=3mI4wM4Y$-zr=87}Ce5^<aub<eKX|=0'
            'a-Cke-bz7cTTsM-m~FdL)G@UKSq;8K%0X6JP|tx_ZNF7bkk#O;ni6ES1*IK`)wUCWi-{-5YKw`de'
            'r(A|FXWx;rB*pNoM?G_DI#pijTu4NFn&d~&2C9oL8ARjFn#+(rQg~Vmwpnt)lQXf+C{MWcwnv7wa'
            '^YMw7M1=s;ri(tj=&NVia`w;(#iv6;K^eWwipTBdM%v&8I+8%|4CDs=TygRQ*d+($M!WME;}~PO0'
            'YoOY%mE+huVf)HL?8YGnV9bywwSHj-Uk{&{+I&DFJUh2u)Du10oP#nrXQ4lTI4`m_1adaJ9^9a(O'
            '5J-SaQw+cbGq1tNc<7<npmI$(m3su^lQWR}$S3{g<n%c|M7~My7b}@~*FXk}rg?aNiB-+-phL_Q2'
            'TOF!jMV@W7p<YFutqw&xqBz@fWT?%y)MO~lR%|j<W-B(?XA)*xPCNJ4Wz!edA{q)t+DM&Zo$}I1S'
            '6ym?@)9E(Nwuvl*T0TVTdn1&=ND<KwYv5E3T?F(%TS-~f%U$ZkY}q_KYR&!wrcgrmyl<xU*DvUC7'
            'S!ovxy7W!tOv9?cXfZ6ztA48R7T(W+S;Ra55nP1<s=>w$<XTDA)EN8jM<P4`S6Q)b=2fjw)>rtT>'
            '}c+ai&+niXsmX<H=HR<k0GB5jLA+G<wV4<yo7Kk?aLq)lF!k><XCQ#UHLfs<bvE$Dp%r{VbxoU3)'
            ')YGo?VFWOcswRnEXwpzKs^Xs+MBJU{Hwj+6eF|D?0we{!MYO7XQe}1jD`c-xQSaP|)R-3p8ChR`o'
            'mM@BdTS`sEaAwG8%8lJLESVg*r7$vIQ$Lh=Tdi|O2UBjVb;#&o!fmxq7#&i#ZSkSP&!pN`uda4v('
            'YAV}tIwy|wxl}r2_)N=2k`wB+qORTb2JUNTE~8#T)=I$nO;M^ZMB(RL%MCPnLeRz+maR7*O6_jN$'
            'y@pwyh>vd>z@gn&k69vTgOrCtS8|#5gb4p#XIjXL;6VbCUNPNS|=ZpXy?S(u0D3%Pg7Wo7C$13u?'
            'x7B-tsrS;8sbMoiO=fu316ij%mHK=@V_Es2$e4X21$qhv2=(`yuaYofF@_wb`D`_?{_y^WSW`)87'
            'K_skpilZqyU^3e~T=~Q&2g~g{k&^tH!;&uF{X{z2vyx0w-9YzZ{97JS*(4k_=l<hRXeC?+C@J2ot'
            '6y7FDdw(~2n`Sf`9`)}>3nq2qawp~YHe&6WdFn{JOgwJ(M_2JJe5_^n$*Jjx_@rmT6=cwab1(+;s'
            'HP#(YB&kW%5CXQIS!q28DO!Aa#Jpq0!=1BnJMS)x6PC@peg4PpgL2|W=hE^=aQPlloKUW&cWDX%1'
            'P*y%K(c_l$&y?baFD8%uG3Vzip;m1DbL!nXEMBC}7ID1Tit?RLPWcFzQaZiB#ITwRfz=MSWZ}!bR'
            'UkiF7c3&$@L+h)VkRtK*!0FNJkYXi^J9`AM#dV0bp^({TS@7KT5&`~+1-H<NGE>npy2%>o0vjJ_Y'
            '8Kl5V~dsyXyi8EevX$>xV)!>Poz8{Z!OT-^pp}j<6U1#3s?Awjn$J;`(PIo!FS~S;WOn2zi1PML|'
            '!c06xcsvURAJhGZbZK2=swy)7t`0|;ns>Bd-Z^s*^R7)pq+r8~2wwhyCEq3rBKavd^1=Ek$6!;=6'
            '*wwQIS!a|ei<V*<#^$gOBa=<N=m6I=Z`Wq<ygU#bLQS;$_e<C8~I@UloPNi=c+?%r`)7;p>rvlpn'
            'PF9s3z-6EdcU(IYA{C0HqUP5tPf+_HcGF+=%;eS*oX20K@EG2Sq{kxFx%sRe+nhIULtMYiv1Oz^&'
            'I3j%%Mqu^cYoMrjSlwZ|%!j%ws;{VG;uDD{x7$P|Qb!D<r(-R8T8ISAc?RUrtv%{Tl?5V{4cHxP7'
            't@6lC{U1d?rS6Ob>^eLnYDWnVQbZ#l5@Ur%aj~~$8DAWVX`8k8Qh@K+Ua9BH)jB~JDKu^Gua9BH)'
            'C3CP`JO`B00I;IUQEgZ*oTo7P;T%-JimWt+%nRn5AoF5*3R-cE1Om-P@@=4T5VYc490JXS@ok{V$'
            '?~j<%CmkHpDfRgb9+!RB+Y%Mc8a8mA)~B$#sPe)7@}_FknxhixD-%zmC6+cY&m4UGBe?a6{Y@}Mn'
            '$e7GMJ?CBXe^%cyoJ3*=(FFgPVI9{BPesK7M`wXgws7<GBwZ9E|7f=54+g(!>odwMyNva@Rq_b;E'
            '?RJ!&VK4)TWazIUx*tueXX&0%cILGx)^4!Tn&CGV2Y(si%`x&t>Jtbh)C50>^GTx0VCHy^A3>xkV'
            '4E5JHZ`$5HR4_wGm!9I*1t^r{;P}Uk=NxMuzn3~<IdHctNOU{Sgqzz$%LcH3j0bz|<bJQM$>!BUC'
            '31J0jN9{tm9@>%H5LS4*9k~x-1$akpL|6gdkvkEtfmfpyVXf!a?nPL#C!r@YtYOLqcp>gJGcWA3h'
            'V*GQ;Z#v+4<@&Nvxzm^Xiq|o;BnAx2{oV{bZ0^hXb0V#PyyPJ_a{`#qK~;jp;|V5%pD5Vvg%`QQK'
            '%pC)q_L6+P(d7AH`Xth_TBtTI%pzs3x57dzRnDeA5j7SZUqW1a4_Q{~Qg7D^iGO??GITkvw}7;(7'
            '$<*}D+eDv=zp4e|PAp4aO`T)}29*NC`+&0ek(aRr+lvK4WC4!VCY;%=ZqQbvT`5=2yrfeO(yoLRo'
            'gr5FgP-l!9Cg~{_e&4?>*RC)e>#1;3wJbz2#irZ+gEAb<j|6Zdlakb^d*XT=JZF%xF8WY#AebNW>'
            '&iz{x_ti|!wX(dEX`=hq#FlwV-7x9bJ{u`4^HdF$>DuSfdJ|V<ve=&Zal{xq6hDq<W0T^?(RS=p{'
            'K%3tHY#4$sJLc{8#@&*>r`B`WR9(hm$fRcS%N=Ouj2Zt(EiPeZ^t)UROY@7gc+VZ>%pmR^B?;&l|'
            'JgRx>a$-#O3+B6<5qOp1)yn#nj;WdlpyZ^4PZc0ef*@rf+ez;`<9UF0NL2e}T@$^~>)3!CZ6y-o-'
            '=NT?l21>`d^m=L{u=`bBr6#hr%oOwIjJy^AXzQ9f4t;(F(kkJZ1p-r?i}HZWc#OYn(W7}u=09k_>'
            'a&7#(Un;6%u8y%^Oas61ne;eZ-mVbPR6T_0nhnRnSND*mOLfGeMWL)w1(3AHvu6TUt$=exMJU;Z~'
            '9gV9Uw?1Z5<C@F0FVxkzCf|FZw#GI2;|ujQuE|G_)Y!N_AJq%_=vrx5*`~b>CAQrX9~vKV!Brz^_'
            'aconTJ-;xGAW3r{dFyWc7>&HoT4-=O2eWwEK0+oG%QNPqBQI%tjU|)o9$p{T_gxK&2XuWsjB~%gt'
            'lI?<)B9P8gX%iMOj#sg+*Cdl!ZlESd@iDS=g;*VG9>|+8EC7#~ziWT|?SN4guXrsg<!SJe?eDqsj'
            'f>{_GmmdeI)2cW`+Jmv?Y^2bXtnc?XwwaCrxpcV2CIXH|oO8xs|ldm7m>QEs^XmMgA3CK?r<A}Wf'
            '_39vZ<HYdR51lXJan-gGjf^C}<EEI;7U9)I*5BKb+yfo4-F|`l`QL}|7MiR?Rs0xd!u&4@)s<5aE'
            'i>k1w3X7_+s0#bUs<4F}u{K-n#9mm~3k!Q;VJ|G~g@wJauoo8g!opry&)f@Zp%7<FDMh!EIn+4yP'
            'kw2%p!QoOSYm;*Nt8TMg%edcQH2v#I8lWYRX9<F6ID1-h4T}taE{pJ<vQHrEYIq!PvZW+3!l$*Vh'
            '4;6Z5R=3km@p40HM2Xb>I7Ij1eUVIZkO>4%*Izw^2RQKAWCd`}FYHo;kZ`)9xIsmU<wo+E`q&Gw!'
            '{*+RzSXM`799h`{!bBj@gME!>lgW{&g$4-C2K<jER&dx@0WBoSOOC5L0W^5!(rlj#wCbtB<7qmM`'
            '8!B3s{ogL7Xe`A9YLY|xSx1*#YnmfMt8i4m4p`5%^NR|PPaU&bdAq{ICVl_GhFMmhLw-HkY_{9OM'
            '<QD_*i(|hDzu1ay(l3s?Cj27cesLq)!Y>l;7YD48UmAd49MMksg#!HIXmY|Y3hoy-vMv0g$9_5SX'
            'b{{7#UoJsEn@!GI6f$A9_h1c8Qp1eRP^iRYsWlpyYJ3Bo+OHL5FeGDxeisBgCu~t45YuIn~NbV;T'
            'uXM)gww^`JdSLs(L>XH<#m)gy6)Y_auwnlSAs0nJX@<NMW6Ss_33d-{Kr8=Sx3FO8Jt4ed&N~<4X'
            '?rr4O!>FB!y_F6*h}OAhj-pTnhm$-usJK(_Ivfcw%1SIL(G;!Bs6Rq~|-`O?oZQ@-S2UpgS$_)@}'
            's>4RJA%Ncbd>&%-qw4a#hyPb7^|Ax0|pYD?-$yAdx!-P-~y{cZwxgE{lzJGlD`u@>6M$C@o{`hbp'
            'o`ZF?va(JAsfxN_i@eQ@r5J!~W{C#VoU*}6R59r;3wv40M$fK^ptc}t3!=6lY73&aAZiQlsx9~@D'
            '9EysAiG>!kX;0kg7hy*NpsunKrif8ryedVBkz}my)4@QZMdwbgFR{sqP8Gv3!=6lY73&a;LB<Y!l'
            'Jz{kM>Kn1=)qVXs@LaHm<j!-^O)nh+_B4_i!(@HarUVC@zTNf+#MC;({nHh~k1ME{NiSC@y$taX}'
            'arRm-VpiMSxUa3+RRH(Y7L2Xc9#>VCdkaV6FLG9NDLTM2Hm@`U1oC@zTNf+#MC;({nH`10a{uy9Y'
            '8uQL^j3wE0`yqGT)VRLbPfaOsE$&?scm!rfWN(`dJAW96P#2`uxqQoFd45Gx~;UorO)Kf06G!;q='
            'R;QjQG>AfjC^U#dgD5nJLW3wYh(d!XG<Z0nK^O<+%Q<MF&|t?wTMEi7<)n@3I4I-PE`m}nnt+2cV'
            't+=7qUrJ{$_=92Aj%D*+#t#gqTC?L4Wis2$_?%-H~8n<yk0`2!(jPlLWkl1?e}cz'
        ),
    },
}
